//! A reference explorer for differential tests: it builds a fresh
//! [`Interpreter`] for every run and scans selectors in a walk of its own.
//!
//! [`Explorer`](phishinghook_evm::explorer::Explorer) analyses a contract
//! once and runs every entry point on one reused machine; this reference
//! is the straightforward construction that reuse must match, trace for
//! trace. It uses only the crate's public API, so the EVM crate's tests
//! and the workspace's corpus tests share it.

use phishinghook_evm::explorer::{CallSite, ExplorerConfig, SelectorRun, SelfdestructSite, Trace};
use phishinghook_evm::host::{CallOutcome, CallParams, Host};
use phishinghook_evm::interp::{Interpreter, Status};
use phishinghook_evm::opcode::ShanghaiRegistry;
use phishinghook_evm::u256::U256;

/// Every `PUSH4 <selector>` followed by `EQ`, first appearance first.
/// The dedup is quadratic, which is fine at test sizes.
pub fn scan_selectors(code: &[u8]) -> Vec<[u8; 4]> {
    let reg = ShanghaiRegistry::shared();
    let mut out: Vec<[u8; 4]> = Vec::new();
    let mut pc = 0usize;
    while pc < code.len() {
        let byte = code[pc];
        if byte == 0x63 && code.get(pc + 5) == Some(&0x14) {
            let sel = [code[pc + 1], code[pc + 2], code[pc + 3], code[pc + 4]];
            if !out.contains(&sel) {
                out.push(sel);
            }
        }
        pc += 1 + reg.get(byte).map_or(0, |i| usize::from(i.immediate_bytes));
    }
    out
}

/// Explores `code` as the explorer does, with one fresh interpreter (empty
/// storage, new machine) per run.
pub fn explore(config: &ExplorerConfig, code: &[u8], host: &mut dyn Host) -> Trace {
    let selectors = scan_selectors(code);
    let mut runs = Vec::new();
    for sel in selectors.iter().take(config.max_selectors) {
        let mut calldata = sel.to_vec();
        calldata.extend_from_slice(&Interpreter::new().env.caller.to_be_bytes());
        calldata.extend_from_slice(&U256::from_u64(1).to_be_bytes());
        runs.push(run_one(config, code, host, Some(*sel), calldata));
    }
    runs.push(run_one(config, code, host, None, Vec::new()));
    Trace {
        selectors_total: selectors.len(),
        runs,
    }
}

fn run_one(
    config: &ExplorerConfig,
    code: &[u8],
    host: &mut dyn Host,
    selector: Option<[u8; 4]>,
    calldata: Vec<u8>,
) -> SelectorRun {
    let mut interp = Interpreter::new();
    interp.gas_limit = config.gas_per_run;
    interp.step_limit = config.steps_per_run;
    interp.env.calldata = calldata;
    let mut recorder = Recorder {
        inner: host,
        caller: interp.env.caller,
        run: SelectorRun {
            selector,
            status: Status::Success,
            gas_used: 0,
            steps: 0,
            calls: Vec::new(),
            selfdestructs: Vec::new(),
            sloads: 0,
            sstores: 0,
            logs: 0,
        },
    };
    let result = interp.run_with_host(code, &mut recorder);
    SelectorRun {
        status: result.status,
        gas_used: result.gas_used,
        steps: result.steps,
        ..recorder.run
    }
}

/// Records one run's observations into a [`SelectorRun`].
struct Recorder<'a> {
    inner: &'a mut dyn Host,
    caller: U256,
    run: SelectorRun,
}

impl Host for Recorder<'_> {
    fn balance(&self, addr: &U256) -> Option<U256> {
        self.inner.balance(addr)
    }

    fn code(&self, addr: &U256) -> Option<Vec<u8>> {
        self.inner.code(addr)
    }

    fn call(&mut self, params: &CallParams) -> CallOutcome {
        self.run.calls.push(CallSite {
            pc: params.pc,
            kind: params.kind,
            transfers_value: !params.value.is_zero(),
            to_caller: params.target == self.caller,
            after_sstore: self.run.sstores > 0,
            after_sload: self.run.sloads > 0,
        });
        self.inner.call(params)
    }

    fn on_storage_read(&mut self, pc: usize, key: &U256) {
        self.run.sloads += 1;
        self.inner.on_storage_read(pc, key);
    }

    fn on_storage_write(&mut self, pc: usize, key: &U256) {
        self.run.sstores += 1;
        self.inner.on_storage_write(pc, key);
    }

    fn on_selfdestruct(&mut self, pc: usize, beneficiary: &U256) {
        self.run.selfdestructs.push(SelfdestructSite {
            pc,
            to_caller: *beneficiary == self.caller,
        });
        self.inner.on_selfdestruct(pc, beneficiary);
    }

    fn on_log(&mut self, pc: usize, topics: usize) {
        self.run.logs += 1;
        self.inner.on_log(pc, topics);
    }
}
