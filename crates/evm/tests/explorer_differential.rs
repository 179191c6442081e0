//! The explorer against a fresh interpreter per run.
//!
//! `Explorer` analyses each contract once and executes every entry point
//! on one reused machine, resetting its stack, memory, return data and
//! storage between runs. The reference in `reference_explorer` builds a
//! new `Interpreter` for every run instead. Their traces must be equal on
//! arbitrary bytecode and on dispatchers whose entry points leave behind
//! exactly the state a missed reset would leak into a later run.

mod reference_explorer;

use phishinghook_evm::asm::Asm;
use phishinghook_evm::explorer::{scan_selectors, Explorer, ExplorerConfig};
use phishinghook_evm::host::{Host, MemoryHost, NullHost};
use phishinghook_evm::interp::Status;
use phishinghook_evm::u256::U256;
use proptest::prelude::*;

/// The default budgets, and budgets tight enough that most runs end out
/// of gas or steps and at most two selectors run.
fn budgets() -> [ExplorerConfig; 2] {
    [
        ExplorerConfig::default(),
        ExplorerConfig {
            gas_per_run: 3_000,
            steps_per_run: 50,
            max_selectors: 2,
        },
    ]
}

/// Asserts that the explorer and the reference agree on `code` under both
/// budgets, each exploring against its own copy of `host`.
fn assert_matches_reference(code: &[u8], host: &(impl Host + Clone)) {
    assert_eq!(
        scan_selectors(code),
        reference_explorer::scan_selectors(code)
    );
    for config in budgets() {
        let got = Explorer::new(config.clone()).explore_with_host(code, &mut host.clone());
        let want = reference_explorer::explore(&config, code, &mut host.clone());
        assert_eq!(got, want, "{config:?} on {code:02x?}");
    }
}

/// The account the `CallForData` body calls; its code returns one word.
const CALLEE: u64 = 0xCAFE;

fn host_with_callee() -> MemoryHost {
    let mut callee = Asm::new();
    callee.push_u64(42).op("PUSH0").op("MSTORE");
    callee.push_u64(32).op("PUSH0").op("RETURN");
    let mut host = MemoryHost::new();
    host.insert(
        U256::from_u64(CALLEE),
        callee.assemble().expect("callee assembles"),
        U256::ZERO,
    );
    host
}

/// Entry-point bodies. Each writer leaves one kind of state behind; its
/// reader succeeds on a fresh machine and reverts or halts on that state.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// `storage[7] = 1`.
    StoreWord,
    /// Reverts unless `storage[7]` is zero.
    LoadWord,
    /// Writes a nonzero word at memory offset 0.
    WriteMemory,
    /// Reverts unless `MSIZE` and the word at offset 0 are both zero.
    ReadMemory,
    /// Calls [`CALLEE`], which leaves 32 bytes of return data.
    CallForData,
    /// Reverts unless `RETURNDATASIZE` is zero.
    ReadReturnData,
    /// Leaves 1,000 words on the stack.
    FillStack,
    /// Pushes 40 words: it overflows only on top of a leftover deep stack.
    GrowStack,
}

const BODIES: [Body; 8] = [
    Body::StoreWord,
    Body::LoadWord,
    Body::WriteMemory,
    Body::ReadMemory,
    Body::CallForData,
    Body::ReadReturnData,
    Body::FillStack,
    Body::GrowStack,
];

fn emit(asm: &mut Asm, body: Body, tag: &str) {
    let revert_unless_zero = |asm: &mut Asm| {
        let ok = format!("{tag}_ok");
        asm.op("ISZERO").jumpi(&ok);
        asm.op("PUSH0").op("PUSH0").op("REVERT");
        asm.label(&ok).op("STOP");
    };
    match body {
        Body::StoreWord => {
            asm.push_u64(1).push_u64(7).op("SSTORE").op("STOP");
        }
        Body::LoadWord => {
            asm.push_u64(7).op("SLOAD");
            revert_unless_zero(asm);
        }
        Body::WriteMemory => {
            asm.push_u64(0x2A).op("PUSH0").op("MSTORE").op("STOP");
        }
        Body::ReadMemory => {
            asm.op("MSIZE").op("PUSH0").op("MLOAD").op("OR");
            revert_unless_zero(asm);
        }
        Body::CallForData => {
            // CALL(gas, CALLEE, value 0, args 0/0, ret 0/0)
            asm.op("PUSH0")
                .op("PUSH0")
                .op("PUSH0")
                .op("PUSH0")
                .op("PUSH0");
            asm.push_u64(CALLEE).push_u64(50_000).op("CALL");
            asm.op("POP").op("STOP");
        }
        Body::ReadReturnData => {
            asm.op("RETURNDATASIZE");
            revert_unless_zero(asm);
        }
        Body::FillStack => {
            for _ in 0..1_000 {
                asm.op("PUSH0");
            }
            asm.op("STOP");
        }
        Body::GrowStack => {
            for _ in 0..40 {
                asm.op("PUSH0");
            }
            asm.op("STOP");
        }
    }
}

fn selector(i: usize) -> [u8; 4] {
    [0x5E, 0x1E, (i >> 8) as u8, i as u8]
}

/// A dispatcher routing selector `i` to `bodies[i]`, with `fallback` run
/// when no selector matches.
fn dispatcher(bodies: &[Body], fallback: Body) -> Vec<u8> {
    let mut asm = Asm::new();
    asm.op("PUSH0").op("CALLDATALOAD").push_u64(0xE0).op("SHR");
    for i in 0..bodies.len() {
        asm.op("DUP1").push_selector(selector(i)).op("EQ");
        asm.jumpi(&format!("fn{i}"));
    }
    emit(&mut asm, fallback, "fallback");
    for (i, body) in bodies.iter().enumerate() {
        asm.label(&format!("fn{i}"));
        emit(&mut asm, *body, &format!("fn{i}"));
    }
    asm.assemble().expect("dispatcher assembles")
}

#[test]
fn every_reader_runs_on_a_fresh_machine_after_its_writer() {
    // Each writer runs right before its reader, and the fallback reads
    // the storage word last, so a missing storage, memory, return-data or
    // stack reset between runs changes the trace.
    let code = dispatcher(&BODIES, Body::LoadWord);
    let host = host_with_callee();
    assert_matches_reference(&code, &host);

    let trace = Explorer::default().explore_with_host(&code, &mut host.clone());
    assert_eq!(trace.selectors_total, BODIES.len());
    for (body, run) in BODIES.iter().zip(&trace.runs) {
        assert_eq!(run.status, Status::Success, "{body:?}: {run:?}");
    }
    assert_eq!(trace.fallback().status, Status::Success);
    assert_eq!(trace.runs[4].calls.len(), 1, "the callee is reached");
}

proptest! {
    /// The explorer's own fuzz inputs: arbitrary bytes, against the null
    /// host and against a host whose account returns data.
    #[test]
    fn arbitrary_bytecode_explores_as_with_a_fresh_interpreter_per_run(
        code in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        assert_matches_reference(&code, &NullHost);
        assert_matches_reference(&code, &host_with_callee());
    }

    /// Dispatchers over random sequences of state-leaving and
    /// state-reading entry points.
    #[test]
    fn generated_dispatchers_explore_as_with_a_fresh_interpreter_per_run(
        picks in proptest::collection::vec(0..BODIES.len(), 1..20),
        fallback in 0..BODIES.len(),
    ) {
        let bodies: Vec<Body> = picks.iter().map(|&i| BODIES[i]).collect();
        let code = dispatcher(&bodies, BODIES[fallback]);
        assert_matches_reference(&code, &host_with_callee());
    }
}
