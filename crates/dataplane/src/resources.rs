//! ASIC resource profile and accounting.
//!
//! A switch program only runs if the compiler can map its tables and
//! register arrays onto the chip's stages within each stage's SRAM/TCAM
//! budget (§4.4.1). This module models that constraint so the reproduction
//! can make — and check — the paper's claim that the NetCache program uses
//! "less than 50% of the on-chip memory available in the Tofino ASIC" (§6).

use core::fmt;

/// Resource profile of a switch ASIC generation.
///
/// Numbers approximate a first-generation Barefoot Tofino: 12 match-action
/// stages per direction, ~2 MB of SRAM per stage usable for tables and
/// register arrays, and a bounded exact-match entry count per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsicProfile {
    /// Match-action stages available to the ingress pipeline.
    pub ingress_stages: usize,
    /// Match-action stages available to the egress pipeline.
    pub egress_stages: usize,
    /// SRAM per stage, in bytes, shared by tables and register arrays.
    pub sram_per_stage: usize,
    /// Maximum exact-match entries a single stage can host.
    pub exact_entries_per_stage: usize,
    /// Maximum bytes a single register array can read+write per packet in
    /// one stage (the "output data size of one register array", §5).
    pub register_width_limit: usize,
    /// Number of parallel pipes (ingress/egress pairs).
    pub pipes: usize,
    /// Packets per second one pipe sustains (1 BQPS for Tofino, §4.4.4).
    pub pipe_rate_pps: u64,
}

impl AsicProfile {
    /// A first-generation Tofino-like profile.
    pub const TOFINO: AsicProfile = AsicProfile {
        ingress_stages: 12,
        egress_stages: 12,
        sram_per_stage: 2 * 1024 * 1024,
        exact_entries_per_stage: 96 * 1024,
        register_width_limit: 16,
        pipes: 4,
        pipe_rate_pps: 1_000_000_000,
    };

    /// Total on-chip SRAM across both directions of one pipe.
    pub fn total_sram(&self) -> usize {
        (self.ingress_stages + self.egress_stages) * self.sram_per_stage
    }

    /// Aggregate packet rate across all pipes.
    pub fn aggregate_rate_pps(&self) -> u64 {
        self.pipe_rate_pps * self.pipes as u64
    }
}

impl Default for AsicProfile {
    fn default() -> Self {
        Self::TOFINO
    }
}

/// One resource allocation recorded against a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Human-readable resource name ("cache lookup", "cms row 2", ...).
    pub name: String,
    /// SRAM consumed, in bytes.
    pub sram_bytes: usize,
    /// Exact-match entries consumed (0 for register arrays).
    pub match_entries: usize,
}

impl Allocation {
    /// An allocation of `sram_bytes` and `match_entries` named `name`.
    pub fn new(name: &str, sram_bytes: usize, match_entries: usize) -> Self {
        Allocation {
            name: name.to_string(),
            sram_bytes,
            match_entries,
        }
    }
}

/// Pipeline direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Ingress pipeline.
    Ingress,
    /// Egress pipeline.
    Egress,
}

/// Errors from attempting to place resources on the ASIC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The program needs more stages than the profile provides.
    OutOfStages {
        /// Which direction overflowed.
        direction: &'static str,
        /// Stages required.
        needed: usize,
        /// Stages available.
        available: usize,
    },
    /// A stage's SRAM budget is exceeded.
    OutOfSram {
        /// Stage index.
        stage: usize,
        /// Bytes requested beyond the budget.
        over_by: usize,
    },
    /// A stage's exact-match entry budget is exceeded.
    OutOfEntries {
        /// Stage index.
        stage: usize,
        /// Entries requested.
        requested: usize,
    },
    /// A register array is wider than the per-stage access limit.
    RegisterTooWide {
        /// Requested width in bytes.
        width: usize,
        /// Limit in bytes.
        limit: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::OutOfStages {
                direction,
                needed,
                available,
            } => write!(
                f,
                "{direction} pipeline needs {needed} stages but only {available} exist"
            ),
            PlacementError::OutOfSram { stage, over_by } => {
                write!(f, "stage {stage} SRAM budget exceeded by {over_by} bytes")
            }
            PlacementError::OutOfEntries { stage, requested } => {
                write!(f, "stage {stage} cannot host {requested} match entries")
            }
            PlacementError::RegisterTooWide { width, limit } => {
                write!(f, "register width {width} exceeds per-stage limit {limit}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Tracks per-stage allocations for one pipeline direction.
#[derive(Debug, Clone)]
pub struct StageMap {
    profile: AsicProfile,
    direction: Direction,
    stages: Vec<Vec<Allocation>>,
}

impl StageMap {
    /// Creates an empty stage map for `direction`.
    pub fn new(profile: AsicProfile, direction: Direction) -> Self {
        let count = match direction {
            Direction::Ingress => profile.ingress_stages,
            Direction::Egress => profile.egress_stages,
        };
        StageMap {
            profile,
            direction,
            stages: vec![Vec::new(); count],
        }
    }

    fn stage_sram(&self, stage: usize) -> usize {
        self.stages[stage].iter().map(|a| a.sram_bytes).sum()
    }

    fn stage_entries(&self, stage: usize) -> usize {
        self.stages[stage].iter().map(|a| a.match_entries).sum()
    }

    /// Places an allocation at the first stage `>= min_stage` that fits,
    /// returning the chosen stage.
    ///
    /// `min_stage` encodes dependency order: a resource that consumes the
    /// output of another must be placed at a strictly later stage.
    pub fn place(&mut self, min_stage: usize, alloc: Allocation) -> Result<usize, PlacementError> {
        if alloc.sram_bytes > self.profile.sram_per_stage {
            return Err(PlacementError::OutOfSram {
                stage: min_stage,
                over_by: alloc.sram_bytes - self.profile.sram_per_stage,
            });
        }
        for stage in min_stage..self.stages.len() {
            let fits_sram =
                self.stage_sram(stage) + alloc.sram_bytes <= self.profile.sram_per_stage;
            let fits_entries = self.stage_entries(stage) + alloc.match_entries
                <= self.profile.exact_entries_per_stage;
            if fits_sram && fits_entries {
                self.stages[stage].push(alloc);
                return Ok(stage);
            }
        }
        Err(PlacementError::OutOfStages {
            direction: match self.direction {
                Direction::Ingress => "ingress",
                Direction::Egress => "egress",
            },
            needed: min_stage + 1,
            available: self.stages.len(),
        })
    }

    /// Places each of `allocs` at the first stage `>= min_stage` it fits
    /// (they are independent of one another), returning the last stage
    /// used, or `min_stage` when there are none.
    pub fn place_all(
        &mut self,
        min_stage: usize,
        allocs: impl IntoIterator<Item = Result<Allocation, PlacementError>>,
    ) -> Result<usize, PlacementError> {
        let mut last = min_stage;
        for alloc in allocs {
            last = last.max(self.place(min_stage, alloc?)?);
        }
        Ok(last)
    }

    /// Total SRAM consumed across all stages.
    pub fn total_sram(&self) -> usize {
        (0..self.stages.len()).map(|s| self.stage_sram(s)).sum()
    }

    /// Number of stages with at least one allocation.
    pub fn stages_used(&self) -> usize {
        self.stages.iter().filter(|s| !s.is_empty()).count()
    }

    /// Per-stage allocations, for the resource report.
    pub fn stages(&self) -> &[Vec<Allocation>] {
        &self.stages
    }
}

/// A full resource report for a compiled program.
#[derive(Debug, Clone)]
pub struct ResourceReport {
    /// The profile compiled against.
    pub profile: AsicProfile,
    /// Ingress placement.
    pub ingress: StageMap,
    /// Egress placement.
    pub egress: StageMap,
}

impl ResourceReport {
    /// Fraction of total on-chip SRAM the program consumes, in `[0, 1]`.
    pub fn sram_fraction(&self) -> f64 {
        (self.ingress.total_sram() + self.egress.total_sram()) as f64
            / self.profile.total_sram() as f64
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ASIC resource report")?;
        for (dir, map) in [("ingress", &self.ingress), ("egress", &self.egress)] {
            writeln!(
                f,
                "  {dir}: {} stages used, {} KB SRAM",
                map.stages_used(),
                map.total_sram() / 1024
            )?;
            for (i, stage) in map.stages().iter().enumerate() {
                for alloc in stage {
                    writeln!(
                        f,
                        "    stage {i:2}: {:<24} {:>8} B sram {:>7} entries",
                        alloc.name, alloc.sram_bytes, alloc.match_entries
                    )?;
                }
            }
        }
        writeln!(
            f,
            "  total SRAM: {:.1}% of chip",
            self.sram_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(name: &str, sram: usize, entries: usize) -> Allocation {
        Allocation::new(name, sram, entries)
    }

    #[test]
    fn place_respects_min_stage() {
        let mut map = StageMap::new(AsicProfile::TOFINO, Direction::Ingress);
        let s0 = map.place(0, alloc("a", 1024, 0)).unwrap();
        let s1 = map.place(s0 + 1, alloc("b", 1024, 0)).unwrap();
        assert!(s1 > s0);
    }

    #[test]
    fn same_stage_shared_when_fits() {
        let mut map = StageMap::new(AsicProfile::TOFINO, Direction::Egress);
        let s0 = map.place(0, alloc("a", 1024, 0)).unwrap();
        let s1 = map.place(0, alloc("b", 1024, 0)).unwrap();
        assert_eq!(s0, s1);
    }

    #[test]
    fn sram_overflow_spills_to_next_stage() {
        let profile = AsicProfile {
            sram_per_stage: 4096,
            ..AsicProfile::TOFINO
        };
        let mut map = StageMap::new(profile, Direction::Egress);
        let s0 = map.place(0, alloc("a", 3000, 0)).unwrap();
        let s1 = map.place(0, alloc("b", 3000, 0)).unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
    }

    #[test]
    fn out_of_stages_detected() {
        let profile = AsicProfile {
            egress_stages: 2,
            sram_per_stage: 1024,
            ..AsicProfile::TOFINO
        };
        let mut map = StageMap::new(profile, Direction::Egress);
        map.place(0, alloc("a", 1024, 0)).unwrap();
        map.place(0, alloc("b", 1024, 0)).unwrap();
        let err = map.place(0, alloc("c", 1024, 0)).unwrap_err();
        assert!(matches!(err, PlacementError::OutOfStages { .. }));
    }

    #[test]
    fn single_allocation_larger_than_stage_rejected() {
        let profile = AsicProfile {
            sram_per_stage: 1024,
            ..AsicProfile::TOFINO
        };
        let mut map = StageMap::new(profile, Direction::Ingress);
        assert!(matches!(
            map.place(0, alloc("huge", 2048, 0)),
            Err(PlacementError::OutOfSram { .. })
        ));
    }

    #[test]
    fn entry_budget_enforced() {
        let profile = AsicProfile {
            exact_entries_per_stage: 10,
            ..AsicProfile::TOFINO
        };
        let mut map = StageMap::new(profile, Direction::Ingress);
        let s0 = map.place(0, alloc("t1", 0, 8)).unwrap();
        let s1 = map.place(0, alloc("t2", 0, 8)).unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1, "entries should spill to next stage");
    }

    #[test]
    fn tofino_profile_figures() {
        let p = AsicProfile::TOFINO;
        assert_eq!(p.total_sram(), 48 * 1024 * 1024);
        assert_eq!(p.aggregate_rate_pps(), 4_000_000_000);
    }
}
