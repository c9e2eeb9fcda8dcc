//! Memory-access plans: the ordered block accesses an instruction generates.
//!
//! The paper's evaluation drives a cycle-accurate DRAM simulator with traces
//! generated from the tensor operations (Section 5). [`AccessPlan`] is that
//! trace at the 64-byte-block level for one DIMM's slice of an instruction;
//! the NMP-local memory controller lowers it to physical DRAM requests.
//!
//! A plan enumerates exactly the accesses [`crate::execute_on_dimm`] would
//! perform, in the same order — a property the tests enforce.

use crate::exec::DimmContext;
use crate::instruction::Instruction;
use crate::vector::LANES;
use crate::IsaError;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A 64-byte block read.
    Read,
    /// A 64-byte block write.
    Write,
}

/// The embedding row behind a GATHER table-data read, for consumers that
/// track row locality (the NMP hot-row cache keys on rows, not blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GatherRow {
    /// The row index being gathered.
    pub row: u64,
    /// Whether this is the first block of this DIMM's slice of the row
    /// (the access where a row-cache lookup decides hit or miss for the
    /// whole slice).
    pub first_block: bool,
}

/// One block access in an instruction's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAccess {
    /// Global block address (64-byte units within the node's pool).
    pub block: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Row provenance: `Some` only on GATHER table-data reads; index-list
    /// reads, outputs and the other opcodes carry `None`.
    pub row: Option<GatherRow>,
}

impl BlockAccess {
    /// Byte address of the block.
    pub fn byte_addr(&self) -> u64 {
        self.block * 64
    }
}

/// The ordered accesses one DIMM performs for one instruction.
///
/// # Example
///
/// ```
/// use tensordimm_isa::{AccessPlan, DimmContext, Instruction, ReduceOp};
///
/// let reduce = Instruction::Reduce {
///     input1: 0,
///     input2: 64,
///     output_base: 128,
///     count: 64,
///     op: ReduceOp::Add,
/// };
/// let plan = AccessPlan::for_dimm(&reduce, DimmContext::new(4, 0), None)?;
/// // This DIMM owns every fourth block: 16 pairs in, 16 out.
/// assert_eq!(plan.reads(), 32);
/// assert_eq!(plan.writes(), 16);
/// # Ok::<(), tensordimm_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessPlan {
    accesses: Vec<BlockAccess>,
}

impl AccessPlan {
    /// Build the plan for `ctx.tid`'s slice of `instr`.
    ///
    /// GATHER plans depend on the runtime index values; pass them via
    /// `indices` (the plan then includes both the index-list block reads and
    /// the data-dependent table reads). REDUCE / AVERAGE ignore `indices`.
    ///
    /// # Errors
    ///
    /// * [`IsaError::InvalidContext`] for a bad `tid`.
    /// * Validation errors from [`Instruction::validate`].
    /// * [`IsaError::ZeroField`] if GATHER is planned without indices
    ///   (reported as a zero `idx` field).
    pub fn for_dimm(
        instr: &Instruction,
        ctx: DimmContext,
        indices: Option<&[u64]>,
    ) -> Result<Self, IsaError> {
        if ctx.node_dim == 0 || ctx.tid >= ctx.node_dim {
            return Err(IsaError::InvalidContext {
                node_dim: ctx.node_dim,
                tid: ctx.tid,
            });
        }
        instr.validate(ctx.node_dim)?;
        let mut plan = AccessPlan::default();
        let node_dim = ctx.node_dim;
        let tid = ctx.tid;
        match *instr {
            Instruction::Gather {
                table_base,
                idx_base,
                output_base,
                count,
                vec_blocks,
            } => {
                let indices = indices.ok_or(IsaError::ZeroField { field: "indices" })?;
                for i in 0..count {
                    if i % LANES as u64 == 0 {
                        plan.read(idx_base + i / LANES as u64);
                    }
                    let index = *indices.get(i as usize).unwrap_or(&0);
                    let src_first = table_base + index * vec_blocks;
                    let mut k = tid;
                    while k < vec_blocks {
                        plan.read_row(src_first + k, index, k == tid);
                        plan.write(output_base + i * vec_blocks + k);
                        k += node_dim;
                    }
                }
            }
            Instruction::Reduce {
                input1,
                input2,
                output_base,
                count,
                ..
            } => {
                let mut b = tid;
                while b < count {
                    plan.read(input1 + b);
                    plan.read(input2 + b);
                    plan.write(output_base + b);
                    b += node_dim;
                }
            }
            Instruction::Average {
                input_base,
                output_base,
                count,
                group,
                vec_blocks,
            } => {
                for i in 0..count {
                    let mut k = tid;
                    while k < vec_blocks {
                        for j in 0..group {
                            plan.read(input_base + (i * group + j) * vec_blocks + k);
                        }
                        plan.write(output_base + i * vec_blocks + k);
                        k += node_dim;
                    }
                }
            }
        }
        Ok(plan)
    }

    fn read(&mut self, block: u64) {
        self.accesses.push(BlockAccess {
            block,
            kind: AccessKind::Read,
            row: None,
        });
    }

    fn read_row(&mut self, block: u64, row: u64, first_block: bool) {
        self.accesses.push(BlockAccess {
            block,
            kind: AccessKind::Read,
            row: Some(GatherRow { row, first_block }),
        });
    }

    fn write(&mut self, block: u64) {
        self.accesses.push(BlockAccess {
            block,
            kind: AccessKind::Write,
            row: None,
        });
    }

    /// The ordered accesses.
    pub fn accesses(&self) -> &[BlockAccess] {
        &self.accesses
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Number of reads.
    pub fn reads(&self) -> u64 {
        self.accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Read)
            .count() as u64
    }

    /// Number of writes.
    pub fn writes(&self) -> u64 {
        self.len() as u64 - self.reads()
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * 64
    }

    /// Iterate over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, BlockAccess> {
        self.accesses.iter()
    }
}

impl<'a> IntoIterator for &'a AccessPlan {
    type Item = &'a BlockAccess;
    type IntoIter = std::slice::Iter<'a, BlockAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_on_dimm, DimmContext};
    use crate::instruction::ReduceOp;
    use crate::memory::{TensorMemory, VecMemory};

    const VB: u64 = 8;

    #[test]
    fn plan_counts_match_execution_for_every_op() {
        let mut mem = VecMemory::new(1 << 14);
        for r in 0..64u64 {
            for b in 0..VB {
                mem.write_f32(r * VB + b, [r as f32; 16]);
            }
        }
        let idx: Vec<u64> = vec![5, 9, 33, 2, 17];
        let idx_u32: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
        mem.write_u32_slice(4096, &idx_u32);

        let instrs = vec![
            Instruction::Gather {
                table_base: 0,
                idx_base: 4096,
                output_base: 8192,
                count: idx.len() as u64,
                vec_blocks: VB,
            },
            Instruction::Reduce {
                input1: 0,
                input2: 512,
                output_base: 1024,
                count: 64,
                op: ReduceOp::Add,
            },
            Instruction::Average {
                input_base: 0,
                output_base: 2048,
                count: 4,
                group: 2,
                vec_blocks: VB,
            },
        ];
        for instr in &instrs {
            for node_dim in [1u64, 2, 4, 8] {
                for tid in 0..node_dim {
                    let ctx = DimmContext::new(node_dim, tid);
                    let plan = AccessPlan::for_dimm(instr, ctx, Some(&idx)).unwrap();
                    let summary = execute_on_dimm(instr, &mut mem, ctx).unwrap();
                    assert_eq!(plan.reads(), summary.blocks_read, "{instr} reads");
                    assert_eq!(plan.writes(), summary.blocks_written, "{instr} writes");
                }
            }
        }
    }

    #[test]
    fn gather_without_indices_is_an_error() {
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 0,
            output_base: 64,
            count: 4,
            vec_blocks: 4,
        };
        assert!(AccessPlan::for_dimm(&g, DimmContext::new(4, 0), None).is_err());
    }

    #[test]
    fn dimm_plans_partition_the_blocks() {
        let r = Instruction::Reduce {
            input1: 0,
            input2: 256,
            output_base: 512,
            count: 64,
            op: ReduceOp::Add,
        };
        let node_dim = 8u64;
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0usize;
        for tid in 0..node_dim {
            let plan = AccessPlan::for_dimm(&r, DimmContext::new(node_dim, tid), None).unwrap();
            for a in &plan {
                assert_eq!(a.block % node_dim, tid, "stripe violated");
                seen.insert((a.block, a.kind == AccessKind::Read, tid));
                total += 1;
            }
        }
        assert_eq!(seen.len(), total, "overlapping accesses across DIMMs");
        // 64 blocks x (2 reads + 1 write).
        assert_eq!(total, 64 * 3);
    }

    #[test]
    fn byte_addresses() {
        let a = BlockAccess {
            block: 3,
            kind: AccessKind::Write,
            row: None,
        };
        assert_eq!(a.byte_addr(), 192);
    }

    /// GATHER table-data reads carry their row; exactly one per row visit
    /// is flagged `first_block`, and nothing else is tagged.
    #[test]
    fn gather_reads_are_row_tagged() {
        let idx: Vec<u64> = vec![5, 9, 5];
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 4096,
            output_base: 8192,
            count: idx.len() as u64,
            vec_blocks: VB,
        };
        for node_dim in [1u64, 4] {
            let plan = AccessPlan::for_dimm(&g, DimmContext::new(node_dim, 0), Some(&idx)).unwrap();
            let tagged: Vec<&BlockAccess> = plan.iter().filter(|a| a.row.is_some()).collect();
            // Every table-data read is tagged: vec_blocks / node_dim per lookup.
            assert_eq!(tagged.len() as u64, idx.len() as u64 * VB / node_dim);
            assert!(tagged.iter().all(|a| a.kind == AccessKind::Read));
            let firsts: Vec<u64> = tagged
                .iter()
                .filter_map(|a| a.row.filter(|r| r.first_block).map(|r| r.row))
                .collect();
            assert_eq!(firsts, idx, "one first-block tag per lookup, in order");
            // Index-list reads and writes stay untagged.
            assert!(plan
                .iter()
                .filter(|a| a.kind == AccessKind::Write)
                .all(|a| a.row.is_none()));
        }

        // The other opcodes never tag.
        let r = Instruction::Reduce {
            input1: 0,
            input2: 8,
            output_base: 16,
            count: 8,
            op: ReduceOp::Add,
        };
        let plan = AccessPlan::for_dimm(&r, DimmContext::new(1, 0), None).unwrap();
        assert!(plan.iter().all(|a| a.row.is_none()));
    }

    #[test]
    fn plan_iteration() {
        let r = Instruction::Reduce {
            input1: 0,
            input2: 8,
            output_base: 16,
            count: 8,
            op: ReduceOp::Add,
        };
        let plan = AccessPlan::for_dimm(&r, DimmContext::new(1, 0), None).unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 24);
        assert_eq!(plan.bytes(), 24 * 64);
        assert_eq!(plan.iter().count(), plan.into_iter().count());
    }
}
