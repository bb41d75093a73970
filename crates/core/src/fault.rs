//! The §4 application fault model as data: the seven fault types of
//! Table 1 and an armed (type, site, trigger visit), defined below the
//! crates that inject them so `ft-sim`'s `App` trait can take a plan.

/// The seven application fault types of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultType {
    /// Flip a random bit in the stack region.
    StackBitFlip,
    /// Flip a random bit in the heap region.
    HeapBitFlip,
    /// Write a computed value to the wrong destination.
    DestinationReg,
    /// Neglect to initialize a variable/buffer.
    Initialization,
    /// Delete a branch (the guarded code always/never runs).
    DeleteBranch,
    /// Delete a source line (skip a statement).
    DeleteInstruction,
    /// Off-by-one in a condition (`>=` vs `>`, `<` vs `<=`).
    OffByOne,
}

impl FaultType {
    /// All seven, in Table 1's order.
    pub const ALL: [FaultType; 7] = [
        FaultType::StackBitFlip,
        FaultType::HeapBitFlip,
        FaultType::DestinationReg,
        FaultType::Initialization,
        FaultType::DeleteBranch,
        FaultType::DeleteInstruction,
        FaultType::OffByOne,
    ];

    /// Table 1's row label.
    pub fn name(self) -> &'static str {
        match self {
            FaultType::StackBitFlip => "Stack bit flip",
            FaultType::HeapBitFlip => "Heap bit flip",
            FaultType::DestinationReg => "Destination reg",
            FaultType::Initialization => "Initialization",
            FaultType::DeleteBranch => "Delete branch",
            FaultType::DeleteInstruction => "Delete instruction",
            FaultType::OffByOne => "Off by one",
        }
    }
}

impl std::fmt::Display for FaultType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed fault: a (type, site, trigger visit) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault type.
    pub fault: FaultType,
    /// The site it lives at (each hook call names its site). `site % n` is
    /// typically derived from a sweep counter, so any site can be hit.
    pub site: u64,
    /// Activate at exactly this visit of the site. The visit counter is
    /// physical (it keeps counting through recovery re-execution), so the
    /// fault is automatically *suppressed during recovery*, the Table 1
    /// end-to-end methodology (§4.1).
    pub trigger_visit: u32,
    /// Identifier journaled with activations.
    pub id: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_type_names_match_table_1() {
        assert_eq!(FaultType::ALL.len(), 7);
        assert_eq!(FaultType::StackBitFlip.name(), "Stack bit flip");
        assert_eq!(FaultType::OffByOne.name(), "Off by one");
    }
}
