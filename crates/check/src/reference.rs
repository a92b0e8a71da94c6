//! Slow reference implementations that differential properties compare
//! the optimized paths against. They use only public APIs and favour
//! obviousness over speed; nothing outside the test suites calls them.

use svtox_core::{Mode, Problem};
use svtox_netlist::GateId;
use svtox_sim::{Logic, TriSimulator};
use svtox_tech::Current;

/// The static-cone bound tracker `svtox_core::BoundTracker` replaced:
/// deciding an input re-bounds every gate of the input's static
/// transitive fanout ([`Problem::tfo`], ascending gate order), each by
/// folding [`Problem::min_leak`] over the Cartesian expansion of its `X`
/// pins ([`TriSimulator::possible_states`]).
pub struct ReferenceBoundTracker<'p, 'n> {
    problem: &'p Problem<'n>,
    tri: TriSimulator<'n>,
    mode: Mode,
    contribution: Vec<f64>,
    total: f64,
}

impl<'p, 'n> ReferenceBoundTracker<'p, 'n> {
    /// A tracker with every primary input undecided.
    #[must_use]
    pub fn new(problem: &'p Problem<'n>, mode: Mode) -> Self {
        let netlist = problem.netlist();
        let mut tracker = Self {
            problem,
            tri: TriSimulator::new(netlist),
            mode,
            contribution: vec![0.0; netlist.num_gates()],
            total: 0.0,
        };
        for (gid, _) in netlist.gates() {
            let c = tracker.gate_bound(gid);
            tracker.contribution[gid.index()] = c;
            tracker.total += c;
        }
        tracker
    }

    fn gate_bound(&self, gid: GateId) -> f64 {
        let kind = self.problem.netlist().gate(gid).kind();
        self.tri
            .possible_states(gid)
            .into_iter()
            .map(|s| self.problem.min_leak(kind, s, self.mode).value())
            .fold(f64::INFINITY, f64::min)
    }

    /// Sets one input and re-bounds its whole static fanout cone.
    pub fn set_input(&mut self, index: usize, value: Logic) {
        self.tri.set_input(index, value);
        for &gid in self.problem.tfo(index) {
            let c = self.gate_bound(gid);
            self.total += c - self.contribution[gid.index()];
            self.contribution[gid.index()] = c;
        }
    }

    /// The current lower bound.
    #[must_use]
    pub fn bound(&self) -> Current {
        Current::new(self.total)
    }
}
