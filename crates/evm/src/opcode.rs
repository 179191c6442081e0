//! The Shanghai-fork opcode registry.
//!
//! The paper's Table I (sourced from evm.codes, Shanghai fork) lists 144
//! defined opcodes. This module reproduces the registry in full: every
//! defined opcode carries its byte value, mnemonic, *base* gas cost (the
//! static cost; dynamic components such as memory expansion are handled by
//! the interpreter), stack arity, the number of immediate bytes (for the
//! `PUSH` family) and a one-line description.
//!
//! `INVALID` (`0xFE`) has a `NaN` gas cost in the reference table; that is
//! modelled by [`Gas::Nan`].

use std::fmt;

/// Base gas cost of an opcode.
///
/// `Nan` is used for the designated `INVALID` instruction, mirroring the
/// reference table which lists its gas as `NaN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gas {
    /// A fixed base cost in gas units.
    Fixed(u32),
    /// No defined cost (the `INVALID` instruction).
    Nan,
}

impl Gas {
    /// The numeric cost, or `None` for [`Gas::Nan`].
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Gas::Fixed(g) => Some(u64::from(g)),
            Gas::Nan => None,
        }
    }
}

impl fmt::Display for Gas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gas::Fixed(g) => write!(f, "{g}"),
            Gas::Nan => write!(f, "NaN"),
        }
    }
}

/// Static metadata for one defined EVM opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpcodeInfo {
    /// The opcode byte value (`0x00..=0xFF`).
    pub byte: u8,
    /// Human-readable mnemonic, e.g. `"PUSH1"`.
    pub mnemonic: &'static str,
    /// Base gas cost.
    pub gas: Gas,
    /// Number of words popped from the stack.
    pub stack_in: u8,
    /// Number of words pushed onto the stack.
    pub stack_out: u8,
    /// Number of immediate bytes following the opcode (`PUSH1..=PUSH32`).
    pub immediate_bytes: u8,
    /// One-line description from the reference table.
    pub description: &'static str,
}

impl OpcodeInfo {
    /// Whether this opcode is a member of the `PUSH` family (`PUSH0..=PUSH32`).
    pub fn is_push(&self) -> bool {
        (0x5F..=0x7F).contains(&self.byte)
    }

    /// Whether this opcode terminates execution of the current frame.
    pub fn is_terminator(&self) -> bool {
        matches!(self.byte, 0x00 | 0xF3 | 0xFD | 0xFE | 0xFF)
    }
}

impl fmt::Display for OpcodeInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic)
    }
}

macro_rules! op {
    ($byte:expr, $mn:expr, $gas:expr, $in:expr, $out:expr, $imm:expr, $desc:expr) => {
        OpcodeInfo {
            byte: $byte,
            mnemonic: $mn,
            gas: Gas::Fixed($gas),
            stack_in: $in,
            stack_out: $out,
            immediate_bytes: $imm,
            description: $desc,
        }
    };
}

/// All 144 opcodes defined at the Shanghai fork, in byte order.
pub const SHANGHAI_OPCODES: &[OpcodeInfo] = &[
    op!(0x00, "STOP", 0, 0, 0, 0, "Halts execution"),
    op!(0x01, "ADD", 3, 2, 1, 0, "Addition operation"),
    op!(0x02, "MUL", 5, 2, 1, 0, "Multiplication operation"),
    op!(0x03, "SUB", 3, 2, 1, 0, "Subtraction operation"),
    op!(0x04, "DIV", 5, 2, 1, 0, "Integer division operation"),
    op!(0x05, "SDIV", 5, 2, 1, 0, "Signed integer division operation"),
    op!(0x06, "MOD", 5, 2, 1, 0, "Modulo remainder operation"),
    op!(0x07, "SMOD", 5, 2, 1, 0, "Signed modulo remainder operation"),
    op!(0x08, "ADDMOD", 8, 3, 1, 0, "Modulo addition operation"),
    op!(0x09, "MULMOD", 8, 3, 1, 0, "Modulo multiplication operation"),
    op!(0x0A, "EXP", 10, 2, 1, 0, "Exponential operation"),
    op!(0x0B, "SIGNEXTEND", 5, 2, 1, 0, "Extend length of two's complement signed integer"),
    op!(0x10, "LT", 3, 2, 1, 0, "Less-than comparison"),
    op!(0x11, "GT", 3, 2, 1, 0, "Greater-than comparison"),
    op!(0x12, "SLT", 3, 2, 1, 0, "Signed less-than comparison"),
    op!(0x13, "SGT", 3, 2, 1, 0, "Signed greater-than comparison"),
    op!(0x14, "EQ", 3, 2, 1, 0, "Equality comparison"),
    op!(0x15, "ISZERO", 3, 1, 1, 0, "Is-zero comparison"),
    op!(0x16, "AND", 3, 2, 1, 0, "Bitwise AND operation"),
    op!(0x17, "OR", 3, 2, 1, 0, "Bitwise OR operation"),
    op!(0x18, "XOR", 3, 2, 1, 0, "Bitwise XOR operation"),
    op!(0x19, "NOT", 3, 1, 1, 0, "Bitwise NOT operation"),
    op!(0x1A, "BYTE", 3, 2, 1, 0, "Retrieve single byte from word"),
    op!(0x1B, "SHL", 3, 2, 1, 0, "Left shift operation"),
    op!(0x1C, "SHR", 3, 2, 1, 0, "Logical right shift operation"),
    op!(0x1D, "SAR", 3, 2, 1, 0, "Arithmetic right shift operation"),
    op!(0x20, "SHA3", 30, 2, 1, 0, "Compute Keccak-256 hash"),
    op!(0x30, "ADDRESS", 2, 0, 1, 0, "Get address of currently executing account"),
    op!(0x31, "BALANCE", 100, 1, 1, 0, "Get balance of the given account"),
    op!(0x32, "ORIGIN", 2, 0, 1, 0, "Get execution origination address"),
    op!(0x33, "CALLER", 2, 0, 1, 0, "Get caller address"),
    op!(0x34, "CALLVALUE", 2, 0, 1, 0, "Get deposited value by the instruction/transaction"),
    op!(0x35, "CALLDATALOAD", 3, 1, 1, 0, "Get input data of current environment"),
    op!(0x36, "CALLDATASIZE", 2, 0, 1, 0, "Get size of input data in current environment"),
    op!(0x37, "CALLDATACOPY", 3, 3, 0, 0, "Copy input data in current environment to memory"),
    op!(0x38, "CODESIZE", 2, 0, 1, 0, "Get size of code running in current environment"),
    op!(0x39, "CODECOPY", 3, 3, 0, 0, "Copy code running in current environment to memory"),
    op!(0x3A, "GASPRICE", 2, 0, 1, 0, "Get price of gas in current environment"),
    op!(0x3B, "EXTCODESIZE", 100, 1, 1, 0, "Get size of an account's code"),
    op!(0x3C, "EXTCODECOPY", 100, 4, 0, 0, "Copy an account's code to memory"),
    op!(0x3D, "RETURNDATASIZE", 2, 0, 1, 0, "Get size of output data from the previous call"),
    op!(0x3E, "RETURNDATACOPY", 3, 3, 0, 0, "Copy output data from the previous call to memory"),
    op!(0x3F, "EXTCODEHASH", 100, 1, 1, 0, "Get hash of an account's code"),
    op!(0x40, "BLOCKHASH", 20, 1, 1, 0, "Get the hash of one of the 256 most recent blocks"),
    op!(0x41, "COINBASE", 2, 0, 1, 0, "Get the block's beneficiary address"),
    op!(0x42, "TIMESTAMP", 2, 0, 1, 0, "Get the block's timestamp"),
    op!(0x43, "NUMBER", 2, 0, 1, 0, "Get the block's number"),
    op!(0x44, "PREVRANDAO", 2, 0, 1, 0, "Get the previous block's RANDAO mix"),
    op!(0x45, "GASLIMIT", 2, 0, 1, 0, "Get the block's gas limit"),
    op!(0x46, "CHAINID", 2, 0, 1, 0, "Get the chain ID"),
    op!(0x47, "SELFBALANCE", 5, 0, 1, 0, "Get balance of currently executing account"),
    op!(0x48, "BASEFEE", 2, 0, 1, 0, "Get the base fee"),
    op!(0x50, "POP", 2, 1, 0, 0, "Remove item from stack"),
    op!(0x51, "MLOAD", 3, 1, 1, 0, "Load word from memory"),
    op!(0x52, "MSTORE", 3, 2, 0, 0, "Save word to memory"),
    op!(0x53, "MSTORE8", 3, 2, 0, 0, "Save byte to memory"),
    op!(0x54, "SLOAD", 100, 1, 1, 0, "Load word from storage"),
    op!(0x55, "SSTORE", 100, 2, 0, 0, "Save word to storage"),
    op!(0x56, "JUMP", 8, 1, 0, 0, "Alter the program counter"),
    op!(0x57, "JUMPI", 10, 2, 0, 0, "Conditionally alter the program counter"),
    op!(0x58, "PC", 2, 0, 1, 0, "Get the value of the program counter prior to this instruction"),
    op!(0x59, "MSIZE", 2, 0, 1, 0, "Get the size of active memory in bytes"),
    op!(0x5A, "GAS", 2, 0, 1, 0, "Get the amount of available gas"),
    op!(0x5B, "JUMPDEST", 1, 0, 0, 0, "Mark a valid destination for jumps"),
    op!(0x5F, "PUSH0", 2, 0, 1, 0, "Place value 0 on stack"),
    op!(0x60, "PUSH1", 3, 0, 1, 1, "Place 1 byte item on stack"),
    op!(0x61, "PUSH2", 3, 0, 1, 2, "Place 2 byte item on stack"),
    op!(0x62, "PUSH3", 3, 0, 1, 3, "Place 3 byte item on stack"),
    op!(0x63, "PUSH4", 3, 0, 1, 4, "Place 4 byte item on stack"),
    op!(0x64, "PUSH5", 3, 0, 1, 5, "Place 5 byte item on stack"),
    op!(0x65, "PUSH6", 3, 0, 1, 6, "Place 6 byte item on stack"),
    op!(0x66, "PUSH7", 3, 0, 1, 7, "Place 7 byte item on stack"),
    op!(0x67, "PUSH8", 3, 0, 1, 8, "Place 8 byte item on stack"),
    op!(0x68, "PUSH9", 3, 0, 1, 9, "Place 9 byte item on stack"),
    op!(0x69, "PUSH10", 3, 0, 1, 10, "Place 10 byte item on stack"),
    op!(0x6A, "PUSH11", 3, 0, 1, 11, "Place 11 byte item on stack"),
    op!(0x6B, "PUSH12", 3, 0, 1, 12, "Place 12 byte item on stack"),
    op!(0x6C, "PUSH13", 3, 0, 1, 13, "Place 13 byte item on stack"),
    op!(0x6D, "PUSH14", 3, 0, 1, 14, "Place 14 byte item on stack"),
    op!(0x6E, "PUSH15", 3, 0, 1, 15, "Place 15 byte item on stack"),
    op!(0x6F, "PUSH16", 3, 0, 1, 16, "Place 16 byte item on stack"),
    op!(0x70, "PUSH17", 3, 0, 1, 17, "Place 17 byte item on stack"),
    op!(0x71, "PUSH18", 3, 0, 1, 18, "Place 18 byte item on stack"),
    op!(0x72, "PUSH19", 3, 0, 1, 19, "Place 19 byte item on stack"),
    op!(0x73, "PUSH20", 3, 0, 1, 20, "Place 20 byte item on stack"),
    op!(0x74, "PUSH21", 3, 0, 1, 21, "Place 21 byte item on stack"),
    op!(0x75, "PUSH22", 3, 0, 1, 22, "Place 22 byte item on stack"),
    op!(0x76, "PUSH23", 3, 0, 1, 23, "Place 23 byte item on stack"),
    op!(0x77, "PUSH24", 3, 0, 1, 24, "Place 24 byte item on stack"),
    op!(0x78, "PUSH25", 3, 0, 1, 25, "Place 25 byte item on stack"),
    op!(0x79, "PUSH26", 3, 0, 1, 26, "Place 26 byte item on stack"),
    op!(0x7A, "PUSH27", 3, 0, 1, 27, "Place 27 byte item on stack"),
    op!(0x7B, "PUSH28", 3, 0, 1, 28, "Place 28 byte item on stack"),
    op!(0x7C, "PUSH29", 3, 0, 1, 29, "Place 29 byte item on stack"),
    op!(0x7D, "PUSH30", 3, 0, 1, 30, "Place 30 byte item on stack"),
    op!(0x7E, "PUSH31", 3, 0, 1, 31, "Place 31 byte item on stack"),
    op!(0x7F, "PUSH32", 3, 0, 1, 32, "Place 32 byte (full word) item on stack"),
    op!(0x80, "DUP1", 3, 1, 2, 0, "Duplicate 1st stack item"),
    op!(0x81, "DUP2", 3, 2, 3, 0, "Duplicate 2nd stack item"),
    op!(0x82, "DUP3", 3, 3, 4, 0, "Duplicate 3rd stack item"),
    op!(0x83, "DUP4", 3, 4, 5, 0, "Duplicate 4th stack item"),
    op!(0x84, "DUP5", 3, 5, 6, 0, "Duplicate 5th stack item"),
    op!(0x85, "DUP6", 3, 6, 7, 0, "Duplicate 6th stack item"),
    op!(0x86, "DUP7", 3, 7, 8, 0, "Duplicate 7th stack item"),
    op!(0x87, "DUP8", 3, 8, 9, 0, "Duplicate 8th stack item"),
    op!(0x88, "DUP9", 3, 9, 10, 0, "Duplicate 9th stack item"),
    op!(0x89, "DUP10", 3, 10, 11, 0, "Duplicate 10th stack item"),
    op!(0x8A, "DUP11", 3, 11, 12, 0, "Duplicate 11th stack item"),
    op!(0x8B, "DUP12", 3, 12, 13, 0, "Duplicate 12th stack item"),
    op!(0x8C, "DUP13", 3, 13, 14, 0, "Duplicate 13th stack item"),
    op!(0x8D, "DUP14", 3, 14, 15, 0, "Duplicate 14th stack item"),
    op!(0x8E, "DUP15", 3, 15, 16, 0, "Duplicate 15th stack item"),
    op!(0x8F, "DUP16", 3, 16, 17, 0, "Duplicate 16th stack item"),
    op!(0x90, "SWAP1", 3, 2, 2, 0, "Exchange 1st and 2nd stack items"),
    op!(0x91, "SWAP2", 3, 3, 3, 0, "Exchange 1st and 3rd stack items"),
    op!(0x92, "SWAP3", 3, 4, 4, 0, "Exchange 1st and 4th stack items"),
    op!(0x93, "SWAP4", 3, 5, 5, 0, "Exchange 1st and 5th stack items"),
    op!(0x94, "SWAP5", 3, 6, 6, 0, "Exchange 1st and 6th stack items"),
    op!(0x95, "SWAP6", 3, 7, 7, 0, "Exchange 1st and 7th stack items"),
    op!(0x96, "SWAP7", 3, 8, 8, 0, "Exchange 1st and 8th stack items"),
    op!(0x97, "SWAP8", 3, 9, 9, 0, "Exchange 1st and 9th stack items"),
    op!(0x98, "SWAP9", 3, 10, 10, 0, "Exchange 1st and 10th stack items"),
    op!(0x99, "SWAP10", 3, 11, 11, 0, "Exchange 1st and 11th stack items"),
    op!(0x9A, "SWAP11", 3, 12, 12, 0, "Exchange 1st and 12th stack items"),
    op!(0x9B, "SWAP12", 3, 13, 13, 0, "Exchange 1st and 13th stack items"),
    op!(0x9C, "SWAP13", 3, 14, 14, 0, "Exchange 1st and 14th stack items"),
    op!(0x9D, "SWAP14", 3, 15, 15, 0, "Exchange 1st and 15th stack items"),
    op!(0x9E, "SWAP15", 3, 16, 16, 0, "Exchange 1st and 16th stack items"),
    op!(0x9F, "SWAP16", 3, 17, 17, 0, "Exchange 1st and 17th stack items"),
    op!(0xA0, "LOG0", 375, 2, 0, 0, "Append log record with no topics"),
    op!(0xA1, "LOG1", 750, 3, 0, 0, "Append log record with one topic"),
    op!(0xA2, "LOG2", 1125, 4, 0, 0, "Append log record with two topics"),
    op!(0xA3, "LOG3", 1500, 5, 0, 0, "Append log record with three topics"),
    op!(0xA4, "LOG4", 1875, 6, 0, 0, "Append log record with four topics"),
    op!(0xF0, "CREATE", 32000, 3, 1, 0, "Create a new account with associated code"),
    op!(0xF1, "CALL", 100, 7, 1, 0, "Message-call into an account"),
    op!(0xF2, "CALLCODE", 100, 7, 1, 0, "Message-call into this account with an alternative account's code"),
    op!(0xF3, "RETURN", 0, 2, 0, 0, "Halt execution returning output data"),
    op!(0xF4, "DELEGATECALL", 100, 6, 1, 0, "Message-call into this account with an alternative account's code, persisting sender and value"),
    op!(0xF5, "CREATE2", 32000, 4, 1, 0, "Create a new account with associated code at a predictable address"),
    op!(0xFA, "STATICCALL", 100, 6, 1, 0, "Static message-call into an account"),
    op!(0xFD, "REVERT", 0, 2, 0, 0, "Halt execution reverting state changes but returning data and remaining gas"),
    OpcodeInfo {
        byte: 0xFE,
        mnemonic: "INVALID",
        gas: Gas::Nan,
        stack_in: 0,
        stack_out: 0,
        immediate_bytes: 0,
        description: "Designated invalid instruction",
    },
    op!(0xFF, "SELFDESTRUCT", 5000, 1, 0, 0, "Halt execution and register account for later deletion"),
];

/// Number of distinct mnemonics: the 144 defined opcodes. Undefined bytes
/// share the `INVALID` mnemonic id (the paper's single INVALID bucket).
pub const N_MNEMONICS: usize = SHANGHAI_OPCODES.len();

/// Resolves a mnemonic id (an index into [`SHANGHAI_OPCODES`]) to its string.
///
/// # Panics
/// Panics when `id >= N_MNEMONICS`.
pub fn mnemonic_str(id: u16) -> &'static str {
    SHANGHAI_OPCODES[usize::from(id)].mnemonic
}

/// Dense 256-entry per-byte table: immediate (push payload) width,
/// mnemonic id, base gas, stack inputs and defined-at-Shanghai flag for
/// every possible opcode byte.
///
/// This is the hot-path companion to [`ShanghaiRegistry`]: the streaming
/// disassembler, the interpreter's step loop and its code analysis read
/// plain arrays indexed by the raw byte instead of chasing
/// `Option<&OpcodeInfo>` pointers. Undefined bytes map to the `INVALID`
/// mnemonic id with [`Gas::Nan`], zero immediate width and zero stack
/// inputs.
#[derive(Debug)]
pub struct OpTable {
    imm: [u8; 256],
    mnemonic_id: [u16; 256],
    gas: [Gas; 256],
    stack_in: [u8; 256],
    defined: [bool; 256],
}

impl OpTable {
    /// Builds the table from the static registry.
    pub fn new() -> Self {
        let invalid_id = SHANGHAI_OPCODES
            .iter()
            .position(|o| o.byte == 0xFE)
            .expect("INVALID is defined") as u16;
        let mut table = OpTable {
            imm: [0; 256],
            mnemonic_id: [invalid_id; 256],
            gas: [Gas::Nan; 256],
            stack_in: [0; 256],
            defined: [false; 256],
        };
        for (id, info) in SHANGHAI_OPCODES.iter().enumerate() {
            let b = info.byte as usize;
            table.imm[b] = info.immediate_bytes;
            table.mnemonic_id[b] = id as u16;
            table.gas[b] = info.gas;
            table.stack_in[b] = info.stack_in;
            table.defined[b] = true;
        }
        table
    }

    /// A process-wide shared table.
    pub fn shared() -> &'static OpTable {
        use std::sync::OnceLock;
        static TABLE: OnceLock<OpTable> = OnceLock::new();
        TABLE.get_or_init(OpTable::new)
    }

    /// Immediate operand width of `byte` (0 for everything but `PUSH1..=32`).
    #[inline]
    pub fn immediate_bytes(&self, byte: u8) -> usize {
        usize::from(self.imm[byte as usize])
    }

    /// Mnemonic id of `byte`; undefined bytes report the `INVALID` id.
    #[inline]
    pub fn mnemonic_id(&self, byte: u8) -> u16 {
        self.mnemonic_id[byte as usize]
    }

    /// Base gas cost of `byte`; undefined bytes report [`Gas::Nan`].
    #[inline]
    pub fn gas(&self, byte: u8) -> Gas {
        self.gas[byte as usize]
    }

    /// Stack words `byte` pops; undefined bytes report 0.
    #[inline]
    pub fn stack_in(&self, byte: u8) -> usize {
        usize::from(self.stack_in[byte as usize])
    }

    /// Whether `byte` is defined at the Shanghai fork.
    #[inline]
    pub fn is_defined(&self, byte: u8) -> bool {
        self.defined[byte as usize]
    }
}

impl Default for OpTable {
    fn default() -> Self {
        Self::new()
    }
}

/// A lookup table over the Shanghai opcode set.
///
/// Construct one with [`ShanghaiRegistry::new`] (cheap; backed by the static
/// [`SHANGHAI_OPCODES`] table) or use the shared instance from
/// [`ShanghaiRegistry::shared`].
#[derive(Debug)]
pub struct ShanghaiRegistry {
    by_byte: [Option<&'static OpcodeInfo>; 256],
}

impl ShanghaiRegistry {
    /// Builds the byte-indexed lookup table.
    pub fn new() -> Self {
        let mut by_byte: [Option<&'static OpcodeInfo>; 256] = [None; 256];
        for info in SHANGHAI_OPCODES {
            by_byte[info.byte as usize] = Some(info);
        }
        ShanghaiRegistry { by_byte }
    }

    /// A process-wide shared registry.
    pub fn shared() -> &'static ShanghaiRegistry {
        use std::sync::OnceLock;
        static REG: OnceLock<ShanghaiRegistry> = OnceLock::new();
        REG.get_or_init(ShanghaiRegistry::new)
    }

    /// Looks up the opcode defined for `byte`, if any.
    pub fn get(&self, byte: u8) -> Option<&'static OpcodeInfo> {
        self.by_byte[byte as usize]
    }

    /// Looks up an opcode by its mnemonic (exact, case-sensitive).
    pub fn by_mnemonic(&self, mnemonic: &str) -> Option<&'static OpcodeInfo> {
        SHANGHAI_OPCODES.iter().find(|o| o.mnemonic == mnemonic)
    }

    /// Number of defined opcodes (144 at the Shanghai fork).
    pub fn len(&self) -> usize {
        SHANGHAI_OPCODES.len()
    }

    /// Always `false`; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over all defined opcodes in byte order.
    pub fn iter(&self) -> impl Iterator<Item = &'static OpcodeInfo> {
        SHANGHAI_OPCODES.iter()
    }
}

impl Default for ShanghaiRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shanghai_has_144_opcodes() {
        // The paper: "As of the Shanghai update, 144 opcodes exist."
        assert_eq!(SHANGHAI_OPCODES.len(), 144);
        assert_eq!(ShanghaiRegistry::new().len(), 144);
    }

    #[test]
    fn table_is_sorted_and_unique() {
        for w in SHANGHAI_OPCODES.windows(2) {
            assert!(
                w[0].byte < w[1].byte,
                "{} !< {}",
                w[0].mnemonic,
                w[1].mnemonic
            );
        }
    }

    #[test]
    fn paper_table1_rows_match() {
        let reg = ShanghaiRegistry::new();
        let stop = reg.get(0x00).unwrap();
        assert_eq!((stop.mnemonic, stop.gas), ("STOP", Gas::Fixed(0)));
        let add = reg.get(0x01).unwrap();
        assert_eq!((add.mnemonic, add.gas), ("ADD", Gas::Fixed(3)));
        let mul = reg.get(0x02).unwrap();
        assert_eq!((mul.mnemonic, mul.gas), ("MUL", Gas::Fixed(5)));
        let revert = reg.get(0xFD).unwrap();
        assert_eq!((revert.mnemonic, revert.gas), ("REVERT", Gas::Fixed(0)));
        let invalid = reg.get(0xFE).unwrap();
        assert_eq!((invalid.mnemonic, invalid.gas), ("INVALID", Gas::Nan));
        let sd = reg.get(0xFF).unwrap();
        assert_eq!((sd.mnemonic, sd.gas), ("SELFDESTRUCT", Gas::Fixed(5000)));
    }

    #[test]
    fn push_family_immediates() {
        let reg = ShanghaiRegistry::new();
        assert_eq!(reg.get(0x5F).unwrap().immediate_bytes, 0); // PUSH0
        for n in 1..=32u8 {
            let info = reg.get(0x5F + n).unwrap();
            assert_eq!(info.immediate_bytes, n);
            assert!(info.is_push());
            assert_eq!(info.mnemonic, format!("PUSH{n}"));
        }
    }

    #[test]
    fn undefined_bytes_are_none() {
        let reg = ShanghaiRegistry::new();
        for b in [0x0Cu8, 0x0F, 0x1E, 0x21, 0x49, 0x5C, 0xA5, 0xEF, 0xFB] {
            assert!(reg.get(b).is_none(), "0x{b:02X} should be undefined");
        }
    }

    #[test]
    fn mnemonic_lookup_roundtrip() {
        let reg = ShanghaiRegistry::new();
        for info in reg.iter() {
            assert_eq!(reg.by_mnemonic(info.mnemonic).unwrap().byte, info.byte);
        }
        assert!(reg.by_mnemonic("NOTANOPCODE").is_none());
    }

    #[test]
    fn terminators() {
        let reg = ShanghaiRegistry::new();
        for m in ["STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"] {
            assert!(reg.by_mnemonic(m).unwrap().is_terminator());
        }
        assert!(!reg.by_mnemonic("ADD").unwrap().is_terminator());
    }

    #[test]
    fn gas_display_and_value() {
        assert_eq!(Gas::Fixed(3).to_string(), "3");
        assert_eq!(Gas::Nan.to_string(), "NaN");
        assert_eq!(Gas::Fixed(3).as_u64(), Some(3));
        assert_eq!(Gas::Nan.as_u64(), None);
    }

    #[test]
    fn op_table_matches_registry_on_every_byte() {
        let table = OpTable::shared();
        let reg = ShanghaiRegistry::shared();
        for b in 0..=255u8 {
            match reg.get(b) {
                Some(info) => {
                    assert!(table.is_defined(b));
                    assert_eq!(table.immediate_bytes(b), usize::from(info.immediate_bytes));
                    assert_eq!(table.gas(b), info.gas);
                    assert_eq!(table.stack_in(b), usize::from(info.stack_in));
                    assert_eq!(mnemonic_str(table.mnemonic_id(b)), info.mnemonic);
                }
                None => {
                    assert!(!table.is_defined(b));
                    assert_eq!(table.immediate_bytes(b), 0);
                    assert_eq!(table.gas(b), Gas::Nan);
                    assert_eq!(table.stack_in(b), 0);
                    assert_eq!(mnemonic_str(table.mnemonic_id(b)), "INVALID");
                }
            }
        }
    }

    #[test]
    fn mnemonic_ids_are_dense_and_unique() {
        let table = OpTable::new();
        let mut seen = [false; N_MNEMONICS];
        for info in SHANGHAI_OPCODES {
            let id = table.mnemonic_id(info.byte) as usize;
            assert!(!seen[id], "duplicate id for {}", info.mnemonic);
            seen[id] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
