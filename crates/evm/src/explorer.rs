//! The dispatcher explorer: selector-driven dynamic analysis.
//!
//! Solidity-style runtime bytecode starts with a dispatcher that compares
//! the first four calldata bytes against a table of `PUSH4 <selector>; EQ;
//! JUMPI` triples. The explorer recovers that table statically, then
//! *executes* the contract once per discovered selector (plus once along the
//! fallback path, with empty calldata) under a hard gas/step budget,
//! recording what each entry point actually does: which `CALL`/
//! `SELFDESTRUCT` sites are reachable, whether value moves and to whom,
//! storage-read-before-transfer patterns, revert topology, and
//! reentrancy-shaped call-after-`SSTORE` orderings.
//!
//! The paper's detectors are purely static; honeypot families ("The Art of
//! The Scam") are engineered to *look* benign statically while their payout
//! paths are unreachable. Those are exactly the properties a [`Trace`]
//! makes visible, and the `TraceExtractor` in `phishinghook-features` turns
//! them into model-ready feature rows.
//!
//! Execution is observational: each run starts from empty storage and a
//! deterministic [`Env`](crate::interp::Env), runs against any [`Host`]
//! (the [`NullHost`] by default, or a chain-backed host for real callee
//! state), and can never escape the budget — the interpreter's own gas and
//! step limits bound every run, and the explorer never panics on arbitrary
//! bytecode (fuzzed in this module's property tests).

use crate::host::{CallKind, CallOutcome, CallParams, Host, NullHost};
use crate::interp::{analyse, Halt, Interpreter, Machine, Status};
use crate::u256::U256;

/// Budget and shape knobs for one exploration.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Gas budget per selector run.
    pub gas_per_run: u64,
    /// Step budget per selector run (hard bound on instructions executed).
    pub steps_per_run: u64,
    /// Maximum number of discovered selectors to execute (dispatchers with
    /// more are truncated; `Trace::selectors_total` still reports them all).
    pub max_selectors: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            gas_per_run: 200_000,
            steps_per_run: 20_000,
            max_selectors: 16,
        }
    }
}

/// One observed `CALL`-family site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Program counter of the call opcode.
    pub pc: usize,
    /// Which opcode.
    pub kind: CallKind,
    /// `true` when the call carried nonzero value.
    pub transfers_value: bool,
    /// `true` when the target equals the transaction caller — the shape of
    /// a legitimate payout (or a reflective honeypot bait).
    pub to_caller: bool,
    /// `true` when an `SSTORE` had already executed in this run — the
    /// reentrancy-shaped call-after-write ordering.
    pub after_sstore: bool,
    /// `true` when an `SLOAD` had already executed in this run — a
    /// storage-gated transfer.
    pub after_sload: bool,
}

/// One observed `SELFDESTRUCT`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfdestructSite {
    /// Program counter of the opcode.
    pub pc: usize,
    /// `true` when the beneficiary equals the transaction caller.
    pub to_caller: bool,
}

/// The record of one entry-point execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorRun {
    /// The dispatched selector, or `None` for the fallback run.
    pub selector: Option<[u8; 4]>,
    /// How the run terminated.
    pub status: Status,
    /// Gas consumed.
    pub gas_used: u64,
    /// Instructions executed.
    pub steps: u64,
    /// Reached `CALL`-family sites, in execution order.
    pub calls: Vec<CallSite>,
    /// Reached `SELFDESTRUCT` sites (at most one — it terminates the run).
    pub selfdestructs: Vec<SelfdestructSite>,
    /// `SLOAD` count.
    pub sloads: u64,
    /// `SSTORE` count.
    pub sstores: u64,
    /// `LOGn` count.
    pub logs: u64,
}

impl SelectorRun {
    /// `true` when the run ended in `REVERT`.
    pub fn reverted(&self) -> bool {
        self.status == Status::Revert
    }

    /// `true` when the run halted abnormally (bad jump, out of gas, …).
    pub fn halted(&self) -> bool {
        matches!(self.status, Status::Halted(_))
    }
}

/// The structured result of exploring one contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Selectors discovered in the dispatcher table (before truncation).
    pub selectors_total: usize,
    /// One record per executed entry point: every explored selector first,
    /// then the fallback run (always last, `selector: None`).
    pub runs: Vec<SelectorRun>,
}

impl Trace {
    /// The fallback run (always present).
    pub fn fallback(&self) -> &SelectorRun {
        self.runs.last().expect("explore always runs the fallback")
    }

    /// All reached call sites across runs.
    pub fn calls(&self) -> impl Iterator<Item = &CallSite> {
        self.runs.iter().flat_map(|r| r.calls.iter())
    }

    /// All reached `SELFDESTRUCT` sites across runs.
    pub fn selfdestructs(&self) -> impl Iterator<Item = &SelfdestructSite> {
        self.runs.iter().flat_map(|r| r.selfdestructs.iter())
    }
}

/// Scans `code` for the dispatcher's selector table.
///
/// The pattern is a `PUSH4 <selector>` whose *next* instruction is `EQ`
/// (covering the canonical `DUP1 PUSH4 … EQ JUMPI` emitted by solc and this
/// repo's assembler, plus Vyper's `CALLDATALOAD PUSH4 … EQ` shape).
/// Duplicates are dropped; order of first appearance is kept. The scan is
/// the same linear pass that finds the interpreter's jump destinations.
pub fn scan_selectors(code: &[u8]) -> Vec<[u8; 4]> {
    analyse(code).selectors
}

/// Records what one run touches, delegating state queries to an inner host.
struct RecordingHost<'a> {
    inner: &'a mut dyn Host,
    caller: U256,
    calls: Vec<CallSite>,
    selfdestructs: Vec<SelfdestructSite>,
    sloads: u64,
    sstores: u64,
    logs: u64,
}

impl<'a> RecordingHost<'a> {
    fn new(inner: &'a mut dyn Host, caller: U256) -> Self {
        RecordingHost {
            inner,
            caller,
            calls: Vec::new(),
            selfdestructs: Vec::new(),
            sloads: 0,
            sstores: 0,
            logs: 0,
        }
    }
}

impl Host for RecordingHost<'_> {
    fn balance(&self, addr: &U256) -> Option<U256> {
        self.inner.balance(addr)
    }

    fn code(&self, addr: &U256) -> Option<Vec<u8>> {
        self.inner.code(addr)
    }

    fn call(&mut self, params: &CallParams) -> CallOutcome {
        self.calls.push(CallSite {
            pc: params.pc,
            kind: params.kind,
            transfers_value: !params.value.is_zero(),
            to_caller: params.target == self.caller,
            after_sstore: self.sstores > 0,
            after_sload: self.sloads > 0,
        });
        self.inner.call(params)
    }

    fn on_storage_read(&mut self, pc: usize, key: &U256) {
        self.sloads += 1;
        self.inner.on_storage_read(pc, key);
    }

    fn on_storage_write(&mut self, pc: usize, key: &U256) {
        self.sstores += 1;
        self.inner.on_storage_write(pc, key);
    }

    fn on_selfdestruct(&mut self, pc: usize, beneficiary: &U256) {
        self.selfdestructs.push(SelfdestructSite {
            pc,
            to_caller: *beneficiary == self.caller,
        });
        self.inner.on_selfdestruct(pc, beneficiary);
    }

    fn on_log(&mut self, pc: usize, topics: usize) {
        self.logs += 1;
        self.inner.on_log(pc, topics);
    }
}

/// The dispatcher explorer. Cheap to construct; stateless between contracts.
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    /// Budget configuration applied to every run.
    pub config: ExplorerConfig,
}

impl Explorer {
    /// An explorer with the given budgets.
    pub fn new(config: ExplorerConfig) -> Self {
        Explorer { config }
    }

    /// Explores `code` against the [`NullHost`] (no foreign state).
    pub fn explore(&self, code: &[u8]) -> Trace {
        self.explore_with_host(code, &mut NullHost)
    }

    /// Explores `code` with foreign state served by `host`: scans the
    /// selector table, then executes each selector (argument words are a
    /// deterministic nonzero pattern) and finally the fallback path.
    ///
    /// The code is analysed once, and every run executes on one reused
    /// machine that starts each run from an empty stack, memory, return
    /// data and storage, so each run sees what a fresh interpreter would.
    pub fn explore_with_host(&self, code: &[u8], host: &mut dyn Host) -> Trace {
        let analysis = analyse(code);
        let mut interp = Interpreter::new();
        interp.gas_limit = self.config.gas_per_run;
        interp.step_limit = self.config.steps_per_run;
        let caller = interp.env.caller;
        let mut machine = Machine::new();
        let explored = analysis.selectors.iter().take(self.config.max_selectors);
        let mut runs = Vec::with_capacity(explored.len() + 1);
        for selector in explored.map(Some).chain([None]) {
            let calldata = &mut interp.env.calldata;
            calldata.clear();
            if let Some(sel) = selector {
                // selector ++ two argument words: the caller address (so
                // `transfer(address,…)`-shaped functions see a plausible
                // recipient) and a small nonzero amount.
                calldata.extend_from_slice(sel);
                calldata.extend_from_slice(&caller.to_be_bytes());
                calldata.extend_from_slice(&U256::ONE.to_be_bytes());
            }
            interp.storage.clear();
            let mut recorder = RecordingHost::new(host, caller);
            let result = interp.execute(code, &analysis.jumpdests, &mut machine, &mut recorder);
            runs.push(SelectorRun {
                selector: selector.copied(),
                status: result.status,
                gas_used: result.gas_used,
                steps: result.steps,
                calls: recorder.calls,
                selfdestructs: recorder.selfdestructs,
                sloads: recorder.sloads,
                sstores: recorder.sstores,
                logs: recorder.logs,
            });
        }
        Trace {
            selectors_total: analysis.selectors.len(),
            runs,
        }
    }
}

/// `true` when the halt is one of the budget-exhaustion variants (rather
/// than a structural fault in the bytecode).
pub fn out_of_budget(status: &Status) -> bool {
    matches!(
        status,
        Status::Halted(Halt::OutOfGas) | Status::Halted(Halt::StepLimit)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    /// A two-function dispatcher: `pay()` CALLs value to the caller;
    /// `lock()` reverts after an SLOAD.
    fn two_fn_contract() -> Vec<u8> {
        let mut asm = Asm::new();
        // Dispatcher
        asm.op("PUSH0").op("CALLDATALOAD").push_u64(0xE0).op("SHR");
        asm.op("DUP1")
            .push_selector([0x11, 0x22, 0x33, 0x44])
            .op("EQ");
        asm.jumpi("pay");
        asm.op("DUP1")
            .push_selector([0xAA, 0xBB, 0xCC, 0xDD])
            .op("EQ");
        asm.jumpi("lock");
        asm.op("STOP"); // fallback
        asm.label("pay");
        asm.push_u64(0).push_u64(0).push_u64(0).push_u64(0);
        asm.push_u64(1).op("CALLER").push_u64(50_000).op("CALL");
        asm.op("POP").op("STOP");
        asm.label("lock");
        asm.push_u64(7).op("SLOAD").op("POP");
        asm.push_u64(0).push_u64(0).op("REVERT");
        asm.assemble().unwrap()
    }

    #[test]
    fn scan_finds_dispatcher_selectors_in_order() {
        let code = two_fn_contract();
        assert_eq!(
            scan_selectors(&code),
            vec![[0x11, 0x22, 0x33, 0x44], [0xAA, 0xBB, 0xCC, 0xDD]]
        );
    }

    #[test]
    fn scan_ignores_push4_without_eq() {
        let mut asm = Asm::new();
        asm.push_selector([1, 2, 3, 4]).op("POP").op("STOP");
        assert!(scan_selectors(&asm.assemble().unwrap()).is_empty());
    }

    #[test]
    fn scan_skips_selectors_inside_push_immediates() {
        // A PUSH8 whose immediate embeds what looks like PUSH4..EQ must not
        // be reported: the scanner walks instruction boundaries.
        let code = [0x67, 0x63, 0x01, 0x02, 0x03, 0x04, 0x14, 0x00, 0x00, 0x00];
        assert!(scan_selectors(&code).is_empty());
    }

    #[test]
    fn explore_runs_every_selector_plus_fallback() {
        let trace = Explorer::default().explore(&two_fn_contract());
        assert_eq!(trace.selectors_total, 2);
        assert_eq!(trace.runs.len(), 3);
        assert_eq!(trace.fallback().selector, None);
        assert_eq!(trace.fallback().status, Status::Success);

        let pay = &trace.runs[0];
        assert_eq!(pay.status, Status::Success);
        assert_eq!(pay.calls.len(), 1);
        assert!(pay.calls[0].transfers_value);
        assert!(pay.calls[0].to_caller);
        assert!(!pay.calls[0].after_sload);

        let lock = &trace.runs[1];
        assert!(lock.reverted());
        assert_eq!(lock.sloads, 1);
        assert!(lock.calls.is_empty());
    }

    #[test]
    fn storage_gated_transfer_is_visible_in_the_trace() {
        // withdraw(): pays out only when storage[0] == 1; fresh storage is
        // empty so the CALL is unreachable — the honeypot shape.
        let mut asm = Asm::new();
        asm.op("PUSH0").op("CALLDATALOAD").push_u64(0xE0).op("SHR");
        asm.op("DUP1")
            .push_selector([0x3C, 0xCF, 0xD6, 0x0B])
            .op("EQ");
        asm.jumpi("withdraw");
        asm.op("STOP");
        asm.label("withdraw");
        asm.push_u64(0).op("SLOAD").push_u64(1).op("EQ");
        asm.jumpi("payout");
        asm.push_u64(0).push_u64(0).op("REVERT");
        asm.label("payout");
        asm.push_u64(0).push_u64(0).push_u64(0).push_u64(0);
        asm.push_u64(1).op("CALLER").push_u64(50_000).op("CALL");
        asm.op("POP").op("STOP");
        let trace = Explorer::default().explore(&asm.assemble().unwrap());
        let run = &trace.runs[0];
        assert!(run.reverted(), "{:?}", run.status);
        assert_eq!(run.sloads, 1);
        assert!(run.calls.is_empty(), "transfer must be unreachable");
    }

    #[test]
    fn selfdestruct_to_caller_is_recorded() {
        let mut asm = Asm::new();
        asm.op("PUSH0").op("CALLDATALOAD").push_u64(0xE0).op("SHR");
        asm.op("DUP1")
            .push_selector([0xDE, 0xAD, 0xBE, 0xEF])
            .op("EQ");
        asm.jumpi("skim");
        asm.op("STOP");
        asm.label("skim");
        asm.op("CALLER").op("SELFDESTRUCT");
        let trace = Explorer::default().explore(&asm.assemble().unwrap());
        let run = &trace.runs[0];
        assert_eq!(run.status, Status::SelfDestructed);
        assert_eq!(run.selfdestructs.len(), 1);
        assert!(run.selfdestructs[0].to_caller);
    }

    #[test]
    fn budget_bounds_infinite_loops() {
        let mut asm = Asm::new();
        asm.label("spin");
        asm.jump("spin");
        let explorer = Explorer::new(ExplorerConfig {
            gas_per_run: 10_000,
            steps_per_run: 5_000,
            ..ExplorerConfig::default()
        });
        let trace = explorer.explore(&asm.assemble().unwrap());
        assert!(out_of_budget(&trace.fallback().status));
        assert!(trace.fallback().steps <= 5_000);
    }

    #[test]
    fn max_selectors_truncates_but_reports_total() {
        let mut asm = Asm::new();
        asm.op("PUSH0").op("CALLDATALOAD").push_u64(0xE0).op("SHR");
        for i in 0..8u8 {
            asm.op("DUP1").push_selector([i, i, i, i]).op("EQ");
            asm.jumpi("hit");
        }
        asm.op("STOP");
        asm.label("hit");
        asm.op("STOP");
        let explorer = Explorer::new(ExplorerConfig {
            max_selectors: 3,
            ..ExplorerConfig::default()
        });
        let trace = explorer.explore(&asm.assemble().unwrap());
        assert_eq!(trace.selectors_total, 8);
        assert_eq!(trace.runs.len(), 4); // 3 selectors + fallback
    }

    #[test]
    fn selector_scan_stays_linear_in_distinct_selectors() {
        // 87,000 distinct `PUSH4 <selector> EQ` pairs make a 522 KB
        // contract, one hex line under the serving path's 1 MiB line cap.
        // A quadratic dedup took about 29 s on it in a debug build.
        let n = 87_000u32;
        let code: Vec<u8> = (0..n)
            .flat_map(|i| {
                let [a, b, c, d] = i.to_be_bytes();
                [0x63, a, b, c, d, 0x14]
            })
            .collect();
        let start = std::time::Instant::now();
        let selectors = scan_selectors(&code);
        assert_eq!(selectors.len(), n as usize);
        assert!(selectors
            .iter()
            .zip(0..n)
            .all(|(s, i)| *s == i.to_be_bytes()));
        let trace = Explorer::default().explore(&code);
        assert_eq!(trace.selectors_total, 87_000);
        assert_eq!(
            trace.runs.len(),
            ExplorerConfig::default().max_selectors + 1
        );
        let elapsed = start.elapsed();
        assert!(elapsed < std::time::Duration::from_secs(2), "{elapsed:?}");
    }

    #[test]
    fn empty_code_explores_cleanly() {
        let trace = Explorer::default().explore(&[]);
        assert_eq!(trace.selectors_total, 0);
        assert_eq!(trace.runs.len(), 1);
        assert_eq!(trace.fallback().status, Status::Success);
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The explorer must never panic and always halt within budget on
        /// arbitrary bytecode — it runs inside the serving path.
        #[test]
        fn explorer_is_total_on_arbitrary_bytecode(
            code in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let explorer = Explorer::new(ExplorerConfig {
                gas_per_run: 50_000,
                steps_per_run: 10_000,
                max_selectors: 8,
            });
            let trace = explorer.explore(&code);
            prop_assert!(trace.runs.len() <= 9);
            for run in &trace.runs {
                prop_assert!(run.steps <= 10_000);
                prop_assert!(run.gas_used <= 50_000);
            }
        }

        /// Arbitrary calldata against arbitrary code through run_with_host.
        #[test]
        fn interpreter_is_total_under_host(
            code in proptest::collection::vec(any::<u8>(), 0..256),
            calldata in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let mut interp = Interpreter::new();
            interp.gas_limit = 30_000;
            interp.step_limit = 10_000;
            interp.env.calldata = calldata;
            let mut host = NullHost;
            let r = interp.run_with_host(&code, &mut host);
            prop_assert!(r.steps <= 10_000);
            prop_assert!(r.gas_used <= 30_000);
        }

        /// Exploration is deterministic: same bytes, same trace.
        #[test]
        fn exploration_is_deterministic(
            code in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let explorer = Explorer::default();
            prop_assert_eq!(explorer.explore(&code), explorer.explore(&code));
        }
    }
}
