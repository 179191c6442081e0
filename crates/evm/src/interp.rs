//! A compact EVM interpreter.
//!
//! The paper never *executes* contracts — PhishingHook's detectors are
//! static, opcode-level analysis. The interpreter serves two callers. The
//! synthetic corpus generator uses it to verify that generated bytecode
//! is a well-formed program (dispatcher reachable, jumps valid, execution
//! terminates cleanly) rather than random bytes, which keeps the dataset
//! honest. The dispatcher [`crate::explorer`] runs every request of the
//! dynamic feature channel through it, so it sits on the serving path:
//! it must be total on arbitrary bytecode and cheap per run.
//!
//! Semantics covered: the full arithmetic/bitwise/comparison set, stack ops,
//! memory with quadratic expansion cost, storage, control flow with
//! `JUMPDEST` validation, environment opcodes served from a configurable
//! [`Env`], `SHA3` over memory, and externals (`CALL` family, `BALANCE`,
//! `EXTCODE*`, `RETURNDATA*`) routed through a pluggable [`Host`].
//! [`Interpreter::run`] uses the [`NullHost`], reproducing the historical
//! simulated semantics (calls succeed with empty return data; `CREATE`
//! returns the zero address); [`Interpreter::run_with_host`] lets a host
//! serve real callee code, balances and return data — the substrate the
//! dynamic-analysis explorer executes on. Execution halts on stack
//! underflow/overflow, invalid jumps, invalid opcodes and gas exhaustion —
//! the same halt conditions the paper's background section lists.
//!
//! A run is one linear analysis of the code (jump destinations, and the
//! selector table the explorer reads) followed by the run loop on a
//! machine. The explorer analyses a contract once and runs all of its
//! entry points on one machine, which the loop resets at the start of
//! every run.

use crate::host::{CallKind, CallParams, Host, NullHost};
use crate::keccak::keccak256;
use crate::opcode::{Gas, OpTable};
use crate::u256::U256;
use std::collections::{HashMap, HashSet};

/// Maximum EVM stack depth.
pub const STACK_LIMIT: usize = 1024;

/// Why execution stopped abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// Gas exhausted.
    OutOfGas,
    /// An operation popped more items than the stack held.
    StackUnderflow,
    /// The stack exceeded 1024 items.
    StackOverflow,
    /// `JUMP`/`JUMPI` to a non-`JUMPDEST` target.
    InvalidJump,
    /// An undefined or designated-invalid opcode was executed.
    InvalidOpcode(u8),
    /// The interpreter's step budget was exhausted (non-EVM safety valve).
    StepLimit,
}

/// Terminal state of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// `STOP`, `RETURN`, or running off the end of the code.
    Success,
    /// `REVERT` was executed.
    Revert,
    /// `SELFDESTRUCT` was executed.
    SelfDestructed,
    /// Abnormal halt.
    Halted(Halt),
}

impl Status {
    /// `true` for [`Status::Success`] and [`Status::SelfDestructed`]
    /// (both are valid, non-reverting terminations).
    pub fn is_ok(&self) -> bool {
        matches!(self, Status::Success | Status::SelfDestructed)
    }
}

/// Outcome of running a contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionResult {
    /// Terminal state.
    pub status: Status,
    /// Gas consumed.
    pub gas_used: u64,
    /// Instructions executed.
    pub steps: u64,
    /// `RETURN`/`REVERT` payload.
    pub output: Vec<u8>,
}

/// Transaction/block environment served to environment opcodes.
#[derive(Debug, Clone)]
pub struct Env {
    /// `ADDRESS` — the executing contract.
    pub address: U256,
    /// `CALLER`.
    pub caller: U256,
    /// `ORIGIN`.
    pub origin: U256,
    /// `CALLVALUE`.
    pub callvalue: U256,
    /// Transaction input data (`CALLDATA*`).
    pub calldata: Vec<u8>,
    /// `GASPRICE`.
    pub gas_price: U256,
    /// `NUMBER`.
    pub block_number: U256,
    /// `TIMESTAMP`.
    pub timestamp: U256,
    /// `CHAINID` (1 = mainnet).
    pub chain_id: U256,
    /// `SELFBALANCE` / `BALANCE` of the executing account.
    pub balance: U256,
    /// `GASLIMIT`.
    pub gas_limit: U256,
    /// `BASEFEE`.
    pub base_fee: U256,
    /// `COINBASE`.
    pub coinbase: U256,
    /// `PREVRANDAO`.
    pub prevrandao: U256,
}

impl Default for Env {
    fn default() -> Self {
        Env {
            address: U256::from_u64(0xC0DE),
            caller: U256::from_u64(0xCA11E4),
            origin: U256::from_u64(0xCA11E4),
            callvalue: U256::ZERO,
            calldata: Vec::new(),
            gas_price: U256::from_u64(20),
            block_number: U256::from_u64(17_034_870), // the paper's Shanghai block
            timestamp: U256::from_u64(1_681_338_455),
            chain_id: U256::ONE,
            balance: U256::from_u64(1_000_000),
            gas_limit: U256::from_u64(30_000_000),
            base_fee: U256::from_u64(7),
            coinbase: U256::from_u64(0xFEE),
            prevrandao: U256::from_u64(0x12345),
        }
    }
}

/// The interpreter. Reusable across runs: each run starts from an empty
/// stack, memory and return data, while storage persists between runs so
/// multi-transaction scenarios can be simulated (clear it for a fresh
/// account, as the explorer does before every run).
#[derive(Debug, Clone)]
pub struct Interpreter {
    /// Environment for the next run.
    pub env: Env,
    /// Persistent contract storage.
    pub storage: HashMap<U256, U256>,
    /// Gas budget per run.
    pub gas_limit: u64,
    /// Safety valve: maximum instructions per run.
    pub step_limit: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter {
            env: Env::default(),
            storage: HashMap::new(),
            gas_limit: 10_000_000,
            step_limit: 1_000_000,
        }
    }
}

/// Memory expansion cost for `words` 32-byte words (Yellow-Paper formula).
fn memory_cost(words: u64) -> u64 {
    3 * words + words * words / 512
}

/// What one pass over a contract's instruction boundaries finds: where
/// jumps may land, and the dispatcher's selector table.
pub(crate) struct Analysis {
    /// `jumpdests[pc]` is `true` when `pc` holds a `JUMPDEST` byte outside
    /// every `PUSH` immediate.
    pub(crate) jumpdests: Vec<bool>,
    /// Each `PUSH4 <selector>` whose next instruction is `EQ`, without
    /// duplicates, in order of first appearance.
    pub(crate) selectors: Vec<[u8; 4]>,
}

/// Analyses `code` in one linear pass over its instruction boundaries.
pub(crate) fn analyse(code: &[u8]) -> Analysis {
    let table = OpTable::shared();
    let mut jumpdests = vec![false; code.len()];
    let mut selectors = Vec::new();
    // std's randomly keyed hasher: selector bytes are the deployer's to
    // choose, so a fixed hash could be steered into collisions.
    let mut seen = HashSet::new();
    let mut pc = 0usize;
    while pc < code.len() {
        let byte = code[pc];
        if byte == 0x5B {
            jumpdests[pc] = true;
        } else if byte == 0x63 && code.get(pc + 5) == Some(&0x14) {
            let sel = [code[pc + 1], code[pc + 2], code[pc + 3], code[pc + 4]];
            if seen.insert(sel) {
                selectors.push(sel);
            }
        }
        pc += 1 + table.immediate_bytes(byte);
    }
    Analysis {
        jumpdests,
        selectors,
    }
}

/// The per-run state of an execution. One machine can serve many runs:
/// [`Interpreter::execute`] resets it first, keeping buffer capacity.
pub(crate) struct Machine {
    pc: usize,
    stack: Vec<U256>,
    memory: Vec<u8>,
    mem_words: u64,
    gas_left: u64,
    steps: u64,
    /// Return data of the most recent completed call (empty before any).
    returndata: Vec<u8>,
}

impl Machine {
    pub(crate) fn new() -> Self {
        Machine {
            pc: 0,
            stack: Vec::with_capacity(64),
            memory: Vec::new(),
            mem_words: 0,
            gas_left: 0,
            steps: 0,
            returndata: Vec::new(),
        }
    }

    /// Readies the machine for a run with `gas`: empty stack, memory and
    /// return data, counters at zero.
    fn reset(&mut self, gas: u64) {
        self.pc = 0;
        self.stack.clear();
        self.memory.clear();
        self.mem_words = 0;
        self.returndata.clear();
        self.gas_left = gas;
        self.steps = 0;
    }

    fn pop(&mut self) -> Result<U256, Halt> {
        self.stack.pop().ok_or(Halt::StackUnderflow)
    }

    fn push(&mut self, v: U256) -> Result<(), Halt> {
        if self.stack.len() >= STACK_LIMIT {
            return Err(Halt::StackOverflow);
        }
        self.stack.push(v);
        Ok(())
    }

    fn charge(&mut self, gas: u64) -> Result<(), Halt> {
        if self.gas_left < gas {
            self.gas_left = 0;
            return Err(Halt::OutOfGas);
        }
        self.gas_left -= gas;
        Ok(())
    }

    /// Expands memory to cover `[offset, offset+len)`, charging the cost delta.
    fn touch_memory(&mut self, offset: U256, len: U256) -> Result<usize, Halt> {
        if len.is_zero() {
            return offset.to_usize().ok_or(Halt::OutOfGas);
        }
        let offset = offset.to_usize().ok_or(Halt::OutOfGas)?;
        let len = len.to_usize().ok_or(Halt::OutOfGas)?;
        let end = offset.checked_add(len).ok_or(Halt::OutOfGas)?;
        if end > 1 << 26 {
            // 64 MiB cap: anything larger would be out of gas in practice.
            return Err(Halt::OutOfGas);
        }
        let words = end.div_ceil(32) as u64;
        if words > self.mem_words {
            let delta = memory_cost(words) - memory_cost(self.mem_words);
            self.charge(delta)?;
            self.mem_words = words;
            self.memory.resize(words as usize * 32, 0);
        }
        Ok(offset)
    }

    fn mem_read(&mut self, offset: U256, len: U256) -> Result<&[u8], Halt> {
        let n = len.to_usize().ok_or(Halt::OutOfGas)?;
        if n == 0 {
            return Ok(&[]);
        }
        let off = self.touch_memory(offset, len)?;
        Ok(&self.memory[off..off + n])
    }
}

impl Interpreter {
    /// Creates an interpreter with default environment and limits.
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Runs `code` as a message call with the given `calldata`.
    pub fn run_call(&mut self, code: &[u8], calldata: &[u8]) -> ExecutionResult {
        self.env.calldata = calldata.to_vec();
        self.run(code)
    }

    /// Runs `code` against the current environment with the [`NullHost`]
    /// (simulated externals — the historical semantics).
    pub fn run(&mut self, code: &[u8]) -> ExecutionResult {
        self.run_with_host(code, &mut NullHost)
    }

    /// Runs `code` with externals (`CALL` family, `BALANCE`, `EXTCODE*`)
    /// served by `host`. Observation hooks on the host fire as storage,
    /// log and `SELFDESTRUCT` opcodes execute.
    pub fn run_with_host(&mut self, code: &[u8], host: &mut dyn Host) -> ExecutionResult {
        let analysis = analyse(code);
        self.execute(code, &analysis.jumpdests, &mut Machine::new(), host)
    }

    /// The run loop: executes `code`, whose valid jump destinations are
    /// `jumpdests`, on `m` after resetting it. Storage is left as it is.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn execute(
        &mut self,
        code: &[u8],
        jumpdests: &[bool],
        m: &mut Machine,
        host: &mut dyn Host,
    ) -> ExecutionResult {
        let table = OpTable::shared();
        m.reset(self.gas_limit);
        let finish = |m: &Machine, status: Status, output: Vec<u8>| ExecutionResult {
            status,
            gas_used: self.gas_limit - m.gas_left,
            steps: m.steps,
            output,
        };

        macro_rules! halt {
            ($m:expr, $h:expr) => {
                return finish($m, Status::Halted($h), Vec::new())
            };
        }
        macro_rules! try_or_halt {
            ($m:expr, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(h) => halt!($m, h),
                }
            };
        }

        while m.pc < code.len() {
            if m.steps >= self.step_limit {
                halt!(m, Halt::StepLimit);
            }
            m.steps += 1;
            let byte = code[m.pc];
            // Undefined bytes and INVALID both carry `Gas::Nan`.
            match table.gas(byte) {
                Gas::Fixed(g) => try_or_halt!(m, m.charge(u64::from(g))),
                Gas::Nan => halt!(m, Halt::InvalidOpcode(byte)),
            }
            if m.stack.len() < table.stack_in(byte) {
                halt!(m, Halt::StackUnderflow);
            }

            let mut next_pc = m.pc + 1 + table.immediate_bytes(byte);
            match byte {
                0x00 => return finish(m, Status::Success, Vec::new()), // STOP
                0x01..=0x1D => {
                    let r = try_or_halt!(m, binary_alu(m, byte));
                    try_or_halt!(m, m.push(r));
                }
                0x20 => {
                    // SHA3
                    let offset = try_or_halt!(m, m.pop());
                    let len = try_or_halt!(m, m.pop());
                    // Dynamic cost: 6 per word.
                    let words = (len.to_usize().unwrap_or(usize::MAX) as u64).div_ceil(32);
                    try_or_halt!(m, m.charge(6 * words));
                    let hash = keccak256(try_or_halt!(m, m.mem_read(offset, len)));
                    try_or_halt!(m, m.push(U256::from_be_bytes(&hash)));
                }
                0x30 => try_or_halt!(m, m.push(self.env.address)),
                0x31 => {
                    // BALANCE: the host answers for foreign accounts; absent
                    // an answer, fall back to the environment's balance (the
                    // historical constant behavior).
                    let who = try_or_halt!(m, m.pop());
                    let bal = host.balance(&who).unwrap_or(self.env.balance);
                    try_or_halt!(m, m.push(bal));
                }
                0x32 => try_or_halt!(m, m.push(self.env.origin)),
                0x33 => try_or_halt!(m, m.push(self.env.caller)),
                0x34 => try_or_halt!(m, m.push(self.env.callvalue)),
                0x35 => {
                    // CALLDATALOAD: bytes past the end of calldata read zero.
                    let i = try_or_halt!(m, m.pop());
                    let mut word = [0u8; 32];
                    if let Some(tail) = i.to_usize().and_then(|s| self.env.calldata.get(s..)) {
                        let n = tail.len().min(32);
                        word[..n].copy_from_slice(&tail[..n]);
                    }
                    try_or_halt!(m, m.push(U256::from_be_bytes(&word)));
                }
                0x36 => try_or_halt!(m, m.push(U256::from_u64(self.env.calldata.len() as u64))),
                0x37 | 0x39 | 0x3E => {
                    // CALLDATACOPY / CODECOPY / RETURNDATACOPY
                    let dst = try_or_halt!(m, m.pop());
                    let src = try_or_halt!(m, m.pop());
                    let len = try_or_halt!(m, m.pop());
                    let n = len.to_usize().unwrap_or(usize::MAX);
                    try_or_halt!(m, m.charge(3 * (n as u64).div_ceil(32)));
                    if n > 0 {
                        let dst_off = try_or_halt!(m, m.touch_memory(dst, len));
                        let source: &[u8] = match byte {
                            0x37 => &self.env.calldata,
                            0x39 => code,
                            _ => &m.returndata, // last call's return buffer
                        };
                        let start = src.to_usize().unwrap_or(usize::MAX);
                        for k in 0..n {
                            m.memory[dst_off + k] =
                                *source.get(start.saturating_add(k)).unwrap_or(&0);
                        }
                    }
                }
                0x38 => try_or_halt!(m, m.push(U256::from_u64(code.len() as u64))),
                0x3A => try_or_halt!(m, m.push(self.env.gas_price)),
                0x3B => {
                    // EXTCODESIZE — the host's code store (empty = 0).
                    let a = try_or_halt!(m, m.pop());
                    let size = host.code(&a).map_or(0, |c| c.len());
                    try_or_halt!(m, m.push(U256::from_u64(size as u64)));
                }
                0x3C => {
                    // EXTCODECOPY — copy from the host's code store,
                    // zero-filling past the end (and for empty accounts).
                    let a = try_or_halt!(m, m.pop());
                    let dst = try_or_halt!(m, m.pop());
                    let src = try_or_halt!(m, m.pop());
                    let len = try_or_halt!(m, m.pop());
                    if !len.is_zero() {
                        let off = try_or_halt!(m, m.touch_memory(dst, len));
                        let n = len.to_usize().unwrap_or(0);
                        let ext = host.code(&a).unwrap_or_default();
                        let start = src.to_usize().unwrap_or(usize::MAX);
                        for k in 0..n {
                            m.memory[off + k] = *ext.get(start.saturating_add(k)).unwrap_or(&0);
                        }
                    }
                }
                0x3D => {
                    // RETURNDATASIZE — size of the last call's return buffer.
                    try_or_halt!(m, m.push(U256::from_u64(m.returndata.len() as u64)));
                }
                0x3F => {
                    // EXTCODEHASH — keccak of the host's code, 0 for empty
                    // accounts (close enough for exploration purposes).
                    let a = try_or_halt!(m, m.pop());
                    let hash = match host.code(&a) {
                        Some(c) => U256::from_be_bytes(&keccak256(&c)),
                        None => U256::ZERO,
                    };
                    try_or_halt!(m, m.push(hash));
                }
                0x40 => {
                    let _n = try_or_halt!(m, m.pop());
                    try_or_halt!(m, m.push(U256::from_u64(0xB10C)));
                }
                0x41 => try_or_halt!(m, m.push(self.env.coinbase)),
                0x42 => try_or_halt!(m, m.push(self.env.timestamp)),
                0x43 => try_or_halt!(m, m.push(self.env.block_number)),
                0x44 => try_or_halt!(m, m.push(self.env.prevrandao)),
                0x45 => try_or_halt!(m, m.push(self.env.gas_limit)),
                0x46 => try_or_halt!(m, m.push(self.env.chain_id)),
                0x47 => try_or_halt!(m, m.push(self.env.balance)),
                0x48 => try_or_halt!(m, m.push(self.env.base_fee)),
                0x50 => {
                    try_or_halt!(m, m.pop());
                }
                0x51 => {
                    // MLOAD
                    let off = try_or_halt!(m, m.pop());
                    let off_usize = try_or_halt!(m, m.touch_memory(off, U256::from_u64(32)));
                    let word: [u8; 32] = m.memory[off_usize..off_usize + 32]
                        .try_into()
                        .expect("32 bytes");
                    try_or_halt!(m, m.push(U256::from_be_bytes(&word)));
                }
                0x52 => {
                    // MSTORE
                    let off = try_or_halt!(m, m.pop());
                    let val = try_or_halt!(m, m.pop());
                    let off_usize = try_or_halt!(m, m.touch_memory(off, U256::from_u64(32)));
                    m.memory[off_usize..off_usize + 32].copy_from_slice(&val.to_be_bytes());
                }
                0x53 => {
                    // MSTORE8
                    let off = try_or_halt!(m, m.pop());
                    let val = try_or_halt!(m, m.pop());
                    let off_usize = try_or_halt!(m, m.touch_memory(off, U256::ONE));
                    m.memory[off_usize] = val.to_be_bytes()[31];
                }
                0x54 => {
                    let key = try_or_halt!(m, m.pop());
                    host.on_storage_read(m.pc, &key);
                    let v = self.storage.get(&key).copied().unwrap_or(U256::ZERO);
                    try_or_halt!(m, m.push(v));
                }
                0x55 => {
                    let key = try_or_halt!(m, m.pop());
                    let val = try_or_halt!(m, m.pop());
                    host.on_storage_write(m.pc, &key);
                    if val.is_zero() {
                        self.storage.remove(&key);
                    } else {
                        self.storage.insert(key, val);
                    }
                }
                0x56 => {
                    // JUMP
                    let dst = try_or_halt!(m, m.pop());
                    match dst.to_usize() {
                        Some(d) if d < code.len() && jumpdests[d] => next_pc = d,
                        _ => halt!(m, Halt::InvalidJump),
                    }
                }
                0x57 => {
                    // JUMPI
                    let dst = try_or_halt!(m, m.pop());
                    let cond = try_or_halt!(m, m.pop());
                    if !cond.is_zero() {
                        match dst.to_usize() {
                            Some(d) if d < code.len() && jumpdests[d] => next_pc = d,
                            _ => halt!(m, Halt::InvalidJump),
                        }
                    }
                }
                0x58 => try_or_halt!(m, m.push(U256::from_u64(m.pc as u64))),
                0x59 => try_or_halt!(m, m.push(U256::from_u64(m.mem_words * 32))),
                0x5A => try_or_halt!(m, m.push(U256::from_u64(m.gas_left))),
                0x5B => {} // JUMPDEST
                0x5F => try_or_halt!(m, m.push(U256::ZERO)),
                0x60..=0x7F => {
                    let end = next_pc.min(code.len());
                    let v = U256::from_be_bytes(&code[m.pc + 1..end]);
                    // Truncated pushes read zero-extended on the right in real
                    // EVMs; left-pad is fine for validation purposes.
                    try_or_halt!(m, m.push(v));
                    next_pc = end;
                }
                0x80..=0x8F => {
                    let depth = usize::from(byte - 0x80);
                    let v = m.stack[m.stack.len() - 1 - depth];
                    try_or_halt!(m, m.push(v));
                }
                0x90..=0x9F => {
                    let depth = usize::from(byte - 0x90) + 1;
                    let top = m.stack.len() - 1;
                    m.stack.swap(top, top - depth);
                }
                0xA0..=0xA4 => {
                    // LOGn: pop offset, len, n topics; charge 8/byte.
                    let off = try_or_halt!(m, m.pop());
                    let len = try_or_halt!(m, m.pop());
                    let topics = usize::from(byte - 0xA0);
                    for _ in 0..topics {
                        try_or_halt!(m, m.pop());
                    }
                    host.on_log(m.pc, topics);
                    let n = len.to_usize().unwrap_or(usize::MAX) as u64;
                    try_or_halt!(m, m.charge(8 * n.min(1 << 30)));
                    try_or_halt!(m, m.mem_read(off, len));
                }
                0xF0 => {
                    // CREATE (simulated): pop value/offset/len, push zero address.
                    for _ in 0..3 {
                        try_or_halt!(m, m.pop());
                    }
                    try_or_halt!(m, m.push(U256::ZERO));
                }
                0xF5 => {
                    for _ in 0..4 {
                        try_or_halt!(m, m.pop());
                    }
                    try_or_halt!(m, m.push(U256::ZERO));
                }
                0xF1 | 0xF2 | 0xF4 | 0xFA => {
                    // CALL / CALLCODE / DELEGATECALL / STATICCALL — routed
                    // through the host. NullHost reproduces the historical
                    // simulated success with empty return data.
                    let kind = match byte {
                        0xF1 => CallKind::Call,
                        0xF2 => CallKind::CallCode,
                        0xF4 => CallKind::DelegateCall,
                        _ => CallKind::StaticCall,
                    };
                    let gas_param = try_or_halt!(m, m.pop());
                    let target = try_or_halt!(m, m.pop());
                    let value = if kind.has_value() {
                        try_or_halt!(m, m.pop())
                    } else {
                        U256::ZERO
                    };
                    let args_off = try_or_halt!(m, m.pop());
                    let args_len = try_or_halt!(m, m.pop());
                    let ret_off = try_or_halt!(m, m.pop());
                    let ret_len = try_or_halt!(m, m.pop());
                    let input = try_or_halt!(m, m.mem_read(args_off, args_len)).to_vec();
                    // EIP-150: forward at most 63/64 of what remains.
                    let cap = m.gas_left - m.gas_left / 64;
                    let forwarded = gas_param.to_usize().map_or(cap, |g| (g as u64).min(cap));
                    let outcome = host.call(&CallParams {
                        pc: m.pc,
                        kind,
                        gas: forwarded,
                        target,
                        value,
                        input,
                    });
                    // A well-behaved host stays within the forwarded gas;
                    // clamp regardless so a buggy host cannot underflow.
                    try_or_halt!(m, m.charge(outcome.gas_used.min(forwarded)));
                    m.returndata = outcome.returndata;
                    // Copy-out: min(retLen, returndata) bytes into caller
                    // memory at retOff.
                    let copy = m
                        .returndata
                        .len()
                        .min(ret_len.to_usize().unwrap_or(usize::MAX));
                    if copy > 0 {
                        let off =
                            try_or_halt!(m, m.touch_memory(ret_off, U256::from_u64(copy as u64)));
                        let (memory, returndata) = (&mut m.memory, &m.returndata);
                        memory[off..off + copy].copy_from_slice(&returndata[..copy]);
                    }
                    try_or_halt!(
                        m,
                        m.push(if outcome.success {
                            U256::ONE
                        } else {
                            U256::ZERO
                        })
                    );
                }
                0xF3 => {
                    // RETURN
                    let off = try_or_halt!(m, m.pop());
                    let len = try_or_halt!(m, m.pop());
                    let out = try_or_halt!(m, m.mem_read(off, len)).to_vec();
                    return finish(m, Status::Success, out);
                }
                0xFD => {
                    // REVERT
                    let off = try_or_halt!(m, m.pop());
                    let len = try_or_halt!(m, m.pop());
                    let out = try_or_halt!(m, m.mem_read(off, len)).to_vec();
                    return finish(m, Status::Revert, out);
                }
                0xFF => {
                    let beneficiary = try_or_halt!(m, m.pop());
                    host.on_selfdestruct(m.pc, &beneficiary);
                    return finish(m, Status::SelfDestructed, Vec::new());
                }
                _ => halt!(m, Halt::InvalidOpcode(byte)),
            }
            m.pc = next_pc;
        }
        finish(m, Status::Success, Vec::new())
    }
}

/// Two-operand (or `ISZERO`/`NOT` one-operand) ALU dispatch for `0x01..=0x1D`.
fn binary_alu(m: &mut Machine, byte: u8) -> Result<U256, Halt> {
    let a = m.pop()?;
    // ISZERO and NOT are unary.
    if byte == 0x15 {
        return Ok(if a.is_zero() { U256::ONE } else { U256::ZERO });
    }
    if byte == 0x19 {
        return Ok(a.not());
    }
    let b = m.pop()?;
    Ok(match byte {
        0x01 => a.wrapping_add(b),
        0x02 => a.wrapping_mul(b),
        0x03 => a.wrapping_sub(b),
        0x04 => a.div(b),
        0x05 => a.sdiv(b),
        0x06 => a.rem(b),
        0x07 => a.smod(b),
        0x08 => {
            let n = m.pop()?;
            a.addmod(b, n)
        }
        0x09 => {
            let n = m.pop()?;
            a.mulmod(b, n)
        }
        0x0A => a.pow(b),
        0x0B => b.signextend(a),
        0x10 => bool_word(a < b),
        0x11 => bool_word(a > b),
        0x12 => bool_word(a.slt(b)),
        0x13 => bool_word(a.sgt(b)),
        0x14 => bool_word(a == b),
        0x16 => a.and(b),
        0x17 => a.or(b),
        0x18 => a.xor(b),
        0x1A => b.byte(a),
        0x1B => b.shl(a.to_usize().map_or(256, |s| s.min(256)) as u32),
        0x1C => b.shr(a.to_usize().map_or(256, |s| s.min(256)) as u32),
        0x1D => b.sar(a.to_usize().map_or(256, |s| s.min(256)) as u32),
        _ => unreachable!("non-ALU byte routed to binary_alu"),
    })
}

fn bool_word(b: bool) -> U256 {
    if b {
        U256::ONE
    } else {
        U256::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn run(code: &[u8]) -> ExecutionResult {
        Interpreter::new().run(code)
    }

    #[test]
    fn empty_code_succeeds() {
        let r = run(&[]);
        assert_eq!(r.status, Status::Success);
        assert_eq!(r.gas_used, 0);
    }

    #[test]
    fn arithmetic_and_return() {
        // (1 + 2) * 7 stored to memory and returned.
        let mut asm = Asm::new();
        asm.push_u64(2).push_u64(1).op("ADD").push_u64(7).op("MUL");
        asm.push_u64(0).op("MSTORE");
        asm.push_u64(32).push_u64(0).op("RETURN");
        let r = run(&asm.assemble().unwrap());
        assert_eq!(r.status, Status::Success);
        assert_eq!(U256::from_be_bytes(&r.output), U256::from_u64(21));
    }

    #[test]
    fn stack_underflow_halts() {
        let r = run(&[0x01]); // ADD on empty stack
        assert_eq!(r.status, Status::Halted(Halt::StackUnderflow));
    }

    #[test]
    fn invalid_opcode_halts() {
        let r = run(&[0x0C]);
        assert_eq!(r.status, Status::Halted(Halt::InvalidOpcode(0x0C)));
        let r = run(&[0xFE]);
        assert_eq!(r.status, Status::Halted(Halt::InvalidOpcode(0xFE)));
    }

    #[test]
    fn invalid_jump_halts() {
        // JUMP to offset 0 (not a JUMPDEST).
        let mut asm = Asm::new();
        asm.push_u64(0).op("JUMP");
        let r = run(&asm.assemble().unwrap());
        assert_eq!(r.status, Status::Halted(Halt::InvalidJump));
    }

    #[test]
    fn jump_into_push_immediate_is_invalid() {
        // PUSH2 0x5B5B then JUMP to offset 1 (a 0x5B byte, but inside the push).
        let code = [0x61, 0x5B, 0x5B, 0x60, 0x01, 0x56];
        let r = run(&code);
        assert_eq!(r.status, Status::Halted(Halt::InvalidJump));
    }

    #[test]
    fn conditional_jump_taken_and_not_taken() {
        let mut asm = Asm::new();
        asm.push_u64(1); // condition true
        asm.jumpi("skip");
        asm.push_u64(0).push_u64(0).op("REVERT");
        asm.label("skip");
        asm.op("STOP");
        let r = run(&asm.assemble().unwrap());
        assert_eq!(r.status, Status::Success);

        let mut asm = Asm::new();
        asm.push_u64(0); // condition false
        asm.jumpi("skip");
        asm.push_u64(0).push_u64(0).op("REVERT");
        asm.label("skip");
        asm.op("STOP");
        let r = run(&asm.assemble().unwrap());
        assert_eq!(r.status, Status::Revert);
    }

    #[test]
    fn storage_persists_across_runs() {
        let mut interp = Interpreter::new();
        // SSTORE key=5 val=42
        let mut asm = Asm::new();
        asm.push_u64(42).push_u64(5).op("SSTORE").op("STOP");
        let r = interp.run(&asm.assemble().unwrap());
        assert!(r.status.is_ok());

        // SLOAD key=5, return it.
        let mut asm = Asm::new();
        asm.push_u64(5).op("SLOAD").push_u64(0).op("MSTORE");
        asm.push_u64(32).push_u64(0).op("RETURN");
        let r = interp.run(&asm.assemble().unwrap());
        assert_eq!(U256::from_be_bytes(&r.output), U256::from_u64(42));
    }

    #[test]
    fn calldataload_and_size() {
        let mut asm = Asm::new();
        asm.push_u64(0).op("CALLDATALOAD").push_u64(0).op("MSTORE");
        asm.push_u64(32).push_u64(0).op("RETURN");
        let code = asm.assemble().unwrap();
        let mut interp = Interpreter::new();
        let mut calldata = vec![0u8; 32];
        calldata[31] = 0x2A;
        let r = interp.run_call(&code, &calldata);
        assert_eq!(U256::from_be_bytes(&r.output), U256::from_u64(0x2A));
    }

    #[test]
    fn calldataload_zero_fills_past_the_end_at_any_offset() {
        let calldata: Vec<u8> = (1..=64).collect();
        let load = |offset: u64| {
            let mut asm = Asm::new();
            asm.push_u64(offset)
                .op("CALLDATALOAD")
                .push_u64(0)
                .op("MSTORE");
            asm.push_u64(32).push_u64(0).op("RETURN");
            Interpreter::new().run_call(&asm.assemble().unwrap(), &calldata)
        };
        assert_eq!(load(0).output, calldata[..32]);
        let mut tail = calldata[40..].to_vec();
        tail.resize(32, 0);
        assert_eq!(load(40).output, tail);
        for offset in [64, 1 << 40, u64::MAX - 1, u64::MAX] {
            let r = load(offset);
            assert_eq!(r.status, Status::Success, "offset {offset}");
            assert_eq!(r.output, [0; 32], "offset {offset}");
        }
    }

    #[test]
    fn sha3_of_memory() {
        // keccak256 of 0 bytes.
        let mut asm = Asm::new();
        asm.push_u64(0)
            .push_u64(0)
            .op("SHA3")
            .push_u64(0)
            .op("MSTORE");
        asm.push_u64(32).push_u64(0).op("RETURN");
        let r = run(&asm.assemble().unwrap());
        assert_eq!(r.output, keccak256(b"").to_vec());
    }

    #[test]
    fn simulated_call_pushes_success() {
        let mut asm = Asm::new();
        // CALL(gas, addr, value, argsOff, argsLen, retOff, retLen)
        for _ in 0..7 {
            asm.push_u64(0);
        }
        asm.op("CALL");
        asm.push_u64(0).op("MSTORE");
        asm.push_u64(32).push_u64(0).op("RETURN");
        let r = run(&asm.assemble().unwrap());
        assert_eq!(U256::from_be_bytes(&r.output), U256::ONE);
    }

    #[test]
    fn selfdestruct_halts_cleanly() {
        let mut asm = Asm::new();
        asm.push_u64(0xBEEF).op("SELFDESTRUCT");
        let r = run(&asm.assemble().unwrap());
        assert_eq!(r.status, Status::SelfDestructed);
        assert!(r.status.is_ok());
    }

    #[test]
    fn out_of_gas() {
        let mut interp = Interpreter::new();
        interp.gas_limit = 10;
        // An SSTORE costs 100.
        let mut asm = Asm::new();
        asm.push_u64(1).push_u64(1).op("SSTORE");
        let r = interp.run(&asm.assemble().unwrap());
        assert_eq!(r.status, Status::Halted(Halt::OutOfGas));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut asm = Asm::new();
        asm.label("spin");
        asm.jump("spin");
        let mut interp = Interpreter::new();
        interp.step_limit = 1_000;
        let r = interp.run(&asm.assemble().unwrap());
        assert!(matches!(
            r.status,
            Status::Halted(Halt::StepLimit) | Status::Halted(Halt::OutOfGas)
        ));
    }

    #[test]
    fn dup_and_swap() {
        let mut asm = Asm::new();
        asm.push_u64(1).push_u64(2).op("DUP2"); // stack: 1 2 1
        asm.op("SWAP1"); // stack: 1 1 2
        asm.op("ADD").op("ADD"); // 4
        asm.push_u64(0)
            .op("MSTORE")
            .push_u64(32)
            .push_u64(0)
            .op("RETURN");
        let r = run(&asm.assemble().unwrap());
        assert_eq!(U256::from_be_bytes(&r.output), U256::from_u64(4));
    }

    #[test]
    fn memory_expansion_charges_gas() {
        // MSTORE at a large offset costs much more than at offset 0.
        let mut a = Asm::new();
        a.push_u64(1).push_u64(0).op("MSTORE").op("STOP");
        let small = run(&a.assemble().unwrap()).gas_used;
        let mut b = Asm::new();
        b.push_u64(1).push_u64(100_000).op("MSTORE").op("STOP");
        let large = run(&b.assemble().unwrap()).gas_used;
        assert!(large > small + 9_000, "large={large} small={small}");
    }

    #[test]
    fn environment_opcodes() {
        let mut interp = Interpreter::new();
        interp.env.caller = U256::from_u64(0xABCD);
        let mut asm = Asm::new();
        asm.op("CALLER").push_u64(0).op("MSTORE");
        asm.push_u64(32).push_u64(0).op("RETURN");
        let r = interp.run(&asm.assemble().unwrap());
        assert_eq!(U256::from_be_bytes(&r.output), U256::from_u64(0xABCD));
    }

    #[test]
    fn gas_opcode_reports_remaining() {
        let mut asm = Asm::new();
        asm.op("GAS")
            .push_u64(0)
            .op("MSTORE")
            .push_u64(32)
            .push_u64(0)
            .op("RETURN");
        let r = run(&asm.assemble().unwrap());
        let reported = U256::from_be_bytes(&r.output).low_u64();
        assert!(reported > 0 && reported < 10_000_000);
    }
}
