//! Pipeline-stage accounting.
//!
//! §2: "The small (~10 MB) switch memory is split between pipeline
//! stages." A PISA pipeline has a fixed number of match-action stages
//! (12 per direction on Tofino-class ASICs); each stateful object — a
//! register array, a pair register array, a table — occupies (part of) a stage,
//! and an object cannot span more SRAM than one stage provides.
//!
//! This module models that second resource dimension beside the byte
//! budget: objects are placed greedily onto stages; placement fails when
//! either the stage count or a stage's SRAM is exhausted. The SwiShmem
//! layer's own state (sequence numbers, pending bits, EWO slot arrays)
//! competes with the NF's tables for stages, which is the real-world
//! pressure behind §7's key-grouping idea.

/// A Tofino-like default: 12 stages.
pub const DEFAULT_STAGES: usize = 12;

/// A Tofino-like default: ~1.25 MB of SRAM per stage.
pub const DEFAULT_STAGE_SRAM: usize = 1_280 * 1024;

/// One placed object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Object name.
    pub name: String,
    /// Stage index the object landed in.
    pub stage: usize,
    /// Bytes it occupies there.
    pub bytes: usize,
}

/// Why a placement failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The object is bigger than a whole stage.
    ObjectTooLarge {
        /// Object name.
        name: String,
        /// Requested bytes.
        requested: usize,
        /// SRAM available in one stage.
        stage_sram: usize,
    },
    /// No stage has room left.
    PipelineFull {
        /// Object name.
        name: String,
        /// Requested bytes.
        requested: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::ObjectTooLarge {
                name,
                requested,
                stage_sram,
            } => write!(
                f,
                "object '{name}' ({requested} B) exceeds a single stage's SRAM ({stage_sram} B)"
            ),
            PlacementError::PipelineFull { name, requested } => {
                write!(f, "no stage can fit '{name}' ({requested} B)")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Greedy first-fit placement of stateful objects onto pipeline stages.
#[derive(Debug, Clone)]
pub struct StagePlanner {
    stage_sram: usize,
    free: Vec<usize>,
    placements: Vec<Placement>,
}

impl StagePlanner {
    /// A planner with `stages` stages of `stage_sram` bytes each.
    pub fn new(stages: usize, stage_sram: usize) -> StagePlanner {
        assert!(stages > 0);
        StagePlanner {
            stage_sram,
            free: vec![stage_sram; stages],
            placements: Vec::new(),
        }
    }

    /// The Tofino-like default geometry (12 × 1.25 MB ≈ 15 MB gross;
    /// parity with the paper's "~10 MB available" once parser/deparser
    /// and table overheads are accounted).
    pub fn standard() -> StagePlanner {
        StagePlanner::new(DEFAULT_STAGES, DEFAULT_STAGE_SRAM)
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.free.len()
    }

    /// Place an object, first-fit. Objects placed in one call must not
    /// exceed a stage (real compilers can split tables across stages;
    /// register arrays cannot be split, which is the constraint we model).
    pub fn place(&mut self, name: &str, bytes: usize) -> Result<Placement, PlacementError> {
        if bytes > self.stage_sram {
            return Err(PlacementError::ObjectTooLarge {
                name: name.to_string(),
                requested: bytes,
                stage_sram: self.stage_sram,
            });
        }
        for (i, free) in self.free.iter_mut().enumerate() {
            if *free >= bytes {
                *free -= bytes;
                let p = Placement {
                    name: name.to_string(),
                    stage: i,
                    bytes,
                };
                self.placements.push(p.clone());
                return Ok(p);
            }
        }
        Err(PlacementError::PipelineFull {
            name: name.to_string(),
            requested: bytes,
        })
    }

    /// All placements so far.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Free SRAM remaining in stage `i`.
    pub fn free_in_stage(&self, i: usize) -> usize {
        self.free[i]
    }

    /// Total free SRAM across the pipeline.
    pub fn free_total(&self) -> usize {
        self.free.iter().sum()
    }

    /// Highest stage index in use plus one (pipeline depth consumed).
    pub fn depth_used(&self) -> usize {
        self.placements
            .iter()
            .map(|p| p.stage + 1)
            .max()
            .unwrap_or(0)
    }
}

impl Default for StagePlanner {
    fn default() -> Self {
        StagePlanner::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_packs_stage_zero_first() {
        let mut p = StagePlanner::new(3, 100);
        assert_eq!(p.place("a", 60).unwrap().stage, 0);
        assert_eq!(p.place("b", 30).unwrap().stage, 0);
        // Doesn't fit in stage 0 anymore.
        assert_eq!(p.place("c", 50).unwrap().stage, 1);
        assert_eq!(p.depth_used(), 2);
        assert_eq!(p.free_in_stage(0), 10);
        assert_eq!(p.free_total(), 10 + 50 + 100);
    }

    #[test]
    fn object_bigger_than_a_stage_rejected() {
        let mut p = StagePlanner::new(3, 100);
        let err = p.place("huge", 101).unwrap_err();
        assert!(matches!(err, PlacementError::ObjectTooLarge { .. }));
        // Nothing was consumed.
        assert_eq!(p.free_total(), 300);
    }

    #[test]
    fn pipeline_fills_up() {
        let mut p = StagePlanner::new(2, 100);
        p.place("a", 100).unwrap();
        p.place("b", 100).unwrap();
        let err = p.place("c", 1).unwrap_err();
        assert!(matches!(err, PlacementError::PipelineFull { .. }));
    }

    #[test]
    fn standard_geometry() {
        let p = StagePlanner::standard();
        assert_eq!(p.stages(), 12);
        assert_eq!(p.free_total(), 12 * 1_280 * 1024);
    }

    #[test]
    fn million_entry_register_needs_grouping_to_fit_a_stage() {
        // §7: a 1M-entry seq+pending array at 16 B/key is 16 MB — no
        // single stage can hold it ungrouped; at group=16 it fits.
        let mut p = StagePlanner::standard();
        assert!(p.place("seq_pending_g1", 1_000_000 * 16).is_err());
        assert!(p.place("seq_pending_g16", 1_000_000 / 16 * 16).is_ok());
    }
}
