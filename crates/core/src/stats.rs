//! Evaluation statistics.
//!
//! Everything §4 of the paper measures is counted here: how many
//! attribute instances were evaluated dynamically vs. statically (the
//! "less than 5 percent" claim), dependency-graph sizes (the dynamic
//! evaluator's space/CPU overhead), rule applications and abstract cost
//! units (which the simulator converts to virtual time).

use std::ops::AddAssign;

/// Counters accumulated during one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Rule applications performed through the dynamic scheduler.
    pub dynamic_applied: usize,
    /// Rule applications performed inside static visit sequences.
    pub static_applied: usize,
    /// Dependency-graph tasks created (dynamic + static-visit tasks).
    pub graph_nodes: usize,
    /// Dependency-graph edges created.
    pub graph_edges: usize,
    /// Abstract CPU cost units consumed by rule applications.
    pub rule_cost_units: u64,
    /// Attribute values received from other machines.
    pub attrs_received: usize,
    /// Attribute values sent to other machines.
    pub attrs_sent: usize,
    /// Logical bytes of the attribute values the machines emitted —
    /// each value's [`crate::value::AttrValue::wire_size`], the same
    /// under every result propagation. What crossed the simulated wire,
    /// librarian references and registrations included, is the
    /// simulator trace's ([`Trace::network_bytes`](paragram_netsim::Trace::network_bytes)).
    pub bytes_sent: usize,
}

impl EvalStats {
    /// Total rule applications.
    pub fn total_applied(&self) -> usize {
        self.dynamic_applied + self.static_applied
    }

    /// Fraction of rule applications that went through the dynamic
    /// scheduler (§4.1 reports < 5% for the combined evaluator).
    pub fn dynamic_fraction(&self) -> f64 {
        let total = self.total_applied();
        if total == 0 {
            0.0
        } else {
            self.dynamic_applied as f64 / total as f64
        }
    }
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, o: Self) {
        self.dynamic_applied += o.dynamic_applied;
        self.static_applied += o.static_applied;
        self.graph_nodes += o.graph_nodes;
        self.graph_edges += o.graph_edges;
        self.rule_cost_units += o.rule_cost_units;
        self.attrs_received += o.attrs_received;
        self.attrs_sent += o.attrs_sent;
        self.bytes_sent += o.bytes_sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_fraction_handles_zero() {
        assert_eq!(EvalStats::default().dynamic_fraction(), 0.0);
    }

    #[test]
    fn dynamic_fraction_counts() {
        let s = EvalStats {
            dynamic_applied: 5,
            static_applied: 95,
            ..Default::default()
        };
        assert!((s.dynamic_fraction() - 0.05).abs() < 1e-12);
        assert_eq!(s.total_applied(), 100);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = EvalStats {
            dynamic_applied: 1,
            bytes_sent: 10,
            ..Default::default()
        };
        a += EvalStats {
            dynamic_applied: 2,
            static_applied: 3,
            bytes_sent: 5,
            ..Default::default()
        };
        assert_eq!(a.dynamic_applied, 3);
        assert_eq!(a.static_applied, 3);
        assert_eq!(a.bytes_sent, 15);
    }
}
