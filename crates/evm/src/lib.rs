#![warn(missing_docs)]

//! EVM substrate for the PhishingHook reproduction.
//!
//! This crate provides everything PhishingHook's *bytecode disassembler module*
//! (BDM) needs, plus the machinery the synthetic corpus generator is built on:
//!
//! * [`opcode`] — the full Shanghai-fork opcode registry (144 defined opcodes),
//!   with mnemonic, base gas cost, stack arity and a short description, exactly
//!   mirroring the reference table the paper cites (evm.codes, Shanghai fork).
//! * [`disasm`] — the disassembler: raw bytecode → `(mnemonic, operand, gas)`
//!   instruction triplets, the paper's enhanced `evmdasm` (with `PUSH0` and
//!   `INVALID` support). Two paths share the decode rules: the
//!   zero-allocation streaming [`disasm::DisasmIter`] (operands borrowed
//!   from the code, metadata via the dense [`opcode::OpTable`]) and the
//!   collecting [`disasm::disassemble`] wrapper producing owned
//!   [`disasm::Instruction`]s.
//! * [`asm`] — an assembler with label resolution, used by the corpus
//!   generator to build realistic runtime bytecode.
//! * [`interp`] — a compact stack-machine interpreter with gas metering, used
//!   to sanity-check that generated contracts actually execute and to run
//!   the explorer's entry points.
//! * [`host`] / [`explorer`] — the dynamic-analysis layer: a pluggable
//!   [`host::Host`] serving external state (callee code, balances, message
//!   calls) behind the interpreter, and a dispatcher [`explorer::Explorer`]
//!   that recovers the `PUSH4/EQ/JUMPI` selector table and executes each
//!   entry point under a hard budget, producing a structured
//!   [`explorer::Trace`] for the trace feature extractors.
//! * [`u256`] / [`keccak`] — 256-bit words and keccak-256 hashing (used for
//!   interpreter arithmetic and for bytecode deduplication).
//!
//! # Quick example
//!
//! ```
//! use phishinghook_evm::disasm::disassemble;
//!
//! // The canonical Solidity preamble: PUSH1 0x80 PUSH1 0x40 MSTORE
//! let code = [0x60, 0x80, 0x60, 0x40, 0x52];
//! let instrs = disassemble(&code);
//! assert_eq!(instrs.len(), 3);
//! assert_eq!(instrs[0].mnemonic(), "PUSH1");
//! assert_eq!(instrs[2].mnemonic(), "MSTORE");
//! ```

pub mod asm;
pub mod disasm;
pub mod explorer;
pub mod host;
pub mod interp;
pub mod keccak;
pub mod opcode;
pub mod u256;

pub use asm::Asm;
pub use disasm::{disasm_iter, disassemble, DisasmIter, Instruction, Op};
pub use explorer::{
    scan_selectors, CallSite, Explorer, ExplorerConfig, SelectorRun, SelfdestructSite, Trace,
};
pub use host::{CallKind, CallOutcome, CallParams, Host, MemoryHost, NullHost};
pub use interp::{Env, ExecutionResult, Halt, Interpreter, Status};
pub use keccak::{keccak256, Digest};
pub use opcode::{mnemonic_str, Gas, OpTable, OpcodeInfo, ShanghaiRegistry, N_MNEMONICS};
pub use u256::U256;
