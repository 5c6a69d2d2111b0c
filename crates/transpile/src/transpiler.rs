//! The transpilation pipeline and its result object.
//!
//! [`Transpiler::run`] chains decomposition → layout → routing → basis
//! translation → optimization, and [`TranspileResult`] retains the
//! logical↔physical bookkeeping QuFI needs: "QuFI keeps track of the logical
//! and physical qubits throughout the transpiling process, and tags the
//! qubits that are neighbors after the transpiling process" (§IV-C).

use crate::basis::{decompose_ccx, translate_to_basis};
use crate::error::TranspileError;
use crate::layout::Layout;
use crate::optimize::{optimize, Level};
use crate::routing::{route_with, RoutingStrategy};
use crate::topology::CouplingMap;
use qufi_sim::circuit::Op;
use qufi_sim::QuantumCircuit;
use std::sync::{Arc, OnceLock};

/// Re-export of the optimization [`Level`] under the Qiskit-flavoured name.
pub type OptimizationLevel = Level;

/// Configures and runs the transpilation pipeline.
///
/// # Example
///
/// ```
/// use qufi_sim::QuantumCircuit;
/// use qufi_transpile::{CouplingMap, OptimizationLevel, Transpiler};
///
/// let mut qc = QuantumCircuit::new(4, 4);
/// qc.h(0).cx(0, 3).measure_all();
/// let t = Transpiler::new(CouplingMap::ibm_h7(), OptimizationLevel::Level3);
/// let result = t.run(&qc).unwrap();
/// // Logical qubit 0 now lives on some physical qubit of the device.
/// let p = result.physical_qubit(0);
/// assert!(p < 7);
/// ```
#[derive(Debug, Clone)]
pub struct Transpiler {
    /// Shared with every [`TranspileResult`] this transpiler returns.
    coupling: Arc<CouplingMap>,
    level: OptimizationLevel,
    translate_basis: bool,
    routing: RoutingStrategy,
    /// `Layout::dense(coupling, width)` by width, computed on first use:
    /// it depends only on the device and the width.
    dense_layouts: Vec<OnceLock<Layout>>,
}

impl Transpiler {
    /// Creates a transpiler for the given device at the given level.
    pub fn new(coupling: CouplingMap, level: OptimizationLevel) -> Self {
        Transpiler {
            dense_layouts: (0..=coupling.num_qubits())
                .map(|_| OnceLock::new())
                .collect(),
            coupling: Arc::new(coupling),
            level,
            translate_basis: true,
            routing: RoutingStrategy::ShortestPath,
        }
    }

    /// Enables or disables the native-basis translation stage (useful for
    /// inspecting routed-but-untranslated circuits).
    pub fn with_basis_translation(mut self, enabled: bool) -> Self {
        self.translate_basis = enabled;
        self
    }

    /// Selects the SWAP-routing strategy (default: shortest-path walking).
    pub fn with_routing(mut self, strategy: RoutingStrategy) -> Self {
        self.routing = strategy;
        self
    }

    /// The device coupling map.
    pub fn coupling(&self) -> &CouplingMap {
        &self.coupling
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// Fails when the circuit does not fit the device or the topology is
    /// disconnected.
    pub fn run(&self, qc: &QuantumCircuit) -> Result<TranspileResult, TranspileError> {
        self.coupling.check_capacity(qc.num_qubits())?;
        let decomposed = decompose_ccx(qc);
        let layout = match self.level {
            Level::Level0 | Level::Level1 => {
                Layout::trivial(qc.num_qubits(), self.coupling.num_qubits())
            }
            _ => self.dense_layouts[qc.num_qubits()]
                .get_or_init(|| Layout::dense(&self.coupling, qc.num_qubits()))
                .clone(),
        };
        let routed = route_with(&decomposed, &self.coupling, layout, self.routing)?;
        let translated = if self.translate_basis {
            translate_to_basis(&routed.circuit)
        } else {
            routed.circuit.clone()
        };
        let optimized = optimize(&translated, self.level, self.translate_basis);
        Ok(TranspileResult {
            circuit: optimized,
            initial_layout: routed.initial_layout,
            final_layout: routed.final_layout,
            coupling: Arc::clone(&self.coupling),
            swaps_inserted: routed.swaps_inserted,
        })
    }
}

/// A transpiled circuit plus the logical↔physical bookkeeping.
#[derive(Debug, Clone)]
pub struct TranspileResult {
    circuit: QuantumCircuit,
    initial_layout: Layout,
    final_layout: Layout,
    coupling: Arc<CouplingMap>,
    swaps_inserted: usize,
}

impl TranspileResult {
    /// The physical circuit (width = device size).
    pub fn circuit(&self) -> &QuantumCircuit {
        &self.circuit
    }

    /// The layout chosen before routing.
    pub fn initial_layout(&self) -> &Layout {
        &self.initial_layout
    }

    /// The layout after all routing SWAPs.
    pub fn final_layout(&self) -> &Layout {
        &self.final_layout
    }

    /// Number of SWAPs routing inserted.
    pub fn swaps_inserted(&self) -> usize {
        self.swaps_inserted
    }

    /// Physical qubit hosting logical `l` at the end of the circuit.
    pub fn physical_qubit(&self, l: usize) -> usize {
        self.final_layout.physical(l)
    }

    /// Logical qubits whose **physical** hosts are coupled to logical `l`'s
    /// host — the candidate second-fault targets for a multi-qubit fault
    /// (paper §III-C / §IV-C).
    pub fn logical_neighbors(&self, l: usize) -> Vec<usize> {
        let p = self.final_layout.physical(l);
        self.coupling
            .neighbors(p)
            .iter()
            .filter_map(|&np| self.final_layout.logical_on(np))
            .collect()
    }

    /// All unordered logical pairs that are physically adjacent after
    /// transpilation — the double-injection candidate couples.
    pub fn coupled_logical_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for &(pa, pb) in self.coupling.edges() {
            if let (Some(la), Some(lb)) = (
                self.final_layout.logical_on(pa),
                self.final_layout.logical_on(pb),
            ) {
                pairs.push((la.min(lb), la.max(lb)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Physical qubits actually touched by the transpiled circuit, sorted.
    /// Simulators can restrict the register to these.
    pub fn active_physical_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.circuit.num_qubits()];
        for op in self.circuit.instructions() {
            match op {
                Op::Gate { qubits, .. } => {
                    for &q in qubits {
                        used[q] = true;
                    }
                }
                Op::Barrier(qs) => {
                    for &q in qs {
                        used[q] = true;
                    }
                }
                Op::Measure { qubit, .. } => used[*qubit] = true,
            }
        }
        // Mapped-but-idle qubits still count as active (they hold state).
        for l in 0..self.final_layout.num_logical() {
            used[self.final_layout.physical(l)] = true;
        }
        (0..used.len()).filter(|&q| used[q]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::is_native;
    use qufi_sim::{Gate, Statevector};

    fn bv3() -> QuantumCircuit {
        // Bernstein-Vazirani, secret 101, on 4 qubits (ancilla = q3).
        let mut qc = QuantumCircuit::new(4, 3);
        qc.x(3).h(0).h(1).h(2).h(3);
        qc.cx(0, 3).cx(2, 3);
        qc.h(0).h(1).h(2);
        qc.measure(0, 0).measure(1, 1).measure(2, 2);
        qc
    }

    fn check_equivalence(qc: &QuantumCircuit, result: &TranspileResult) {
        let golden = Statevector::from_circuit(qc)
            .unwrap()
            .measurement_distribution(qc);
        let actual = Statevector::from_circuit(result.circuit())
            .unwrap()
            .measurement_distribution(result.circuit());
        assert!(
            golden.tv_distance(&actual) < 1e-9,
            "transpile broke semantics"
        );
    }

    #[test]
    fn all_levels_preserve_semantics_on_h7() {
        let qc = bv3();
        for level in [Level::Level0, Level::Level1, Level::Level2, Level::Level3] {
            let t = Transpiler::new(CouplingMap::ibm_h7(), level);
            let result = t.run(&qc).unwrap();
            check_equivalence(&qc, &result);
        }
    }

    #[test]
    fn output_uses_only_native_gates_on_coupled_pairs() {
        let qc = bv3();
        let t = Transpiler::new(CouplingMap::ibm_h7(), Level::Level3);
        let result = t.run(&qc).unwrap();
        let cm = CouplingMap::ibm_h7();
        for op in result.circuit().instructions() {
            if let Op::Gate { gate, qubits } = op {
                assert!(is_native(*gate), "non-native {gate} in output");
                if qubits.len() == 2 {
                    assert!(
                        cm.are_coupled(qubits[0], qubits[1]),
                        "cx on uncoupled pair {qubits:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn level3_produces_fewer_or_equal_gates_than_level0() {
        let qc = bv3();
        let g0 = Transpiler::new(CouplingMap::ibm_h7(), Level::Level0)
            .run(&qc)
            .unwrap()
            .circuit()
            .gate_count();
        let g3 = Transpiler::new(CouplingMap::ibm_h7(), Level::Level3)
            .run(&qc)
            .unwrap()
            .circuit()
            .gate_count();
        assert!(g3 <= g0, "level3 ({g3}) worse than level0 ({g0})");
    }

    #[test]
    fn toffoli_is_transpilable() {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0).h(1).ccx(0, 1, 2).measure_all();
        let t = Transpiler::new(CouplingMap::line(3), Level::Level2);
        let result = t.run(&qc).unwrap();
        check_equivalence(&qc, &result);
    }

    #[test]
    fn neighbor_queries_are_consistent() {
        let qc = bv3();
        let t = Transpiler::new(CouplingMap::ibm_h7(), Level::Level3);
        let result = t.run(&qc).unwrap();
        let pairs = result.coupled_logical_pairs();
        assert!(!pairs.is_empty(), "dense layout must couple some qubits");
        for &(a, b) in &pairs {
            assert!(a < b && b < 4);
            assert!(result.logical_neighbors(a).contains(&b));
            assert!(result.logical_neighbors(b).contains(&a));
            // The physical hosts really are adjacent.
            let cm = CouplingMap::ibm_h7();
            assert!(cm.are_coupled(result.physical_qubit(a), result.physical_qubit(b)));
        }
    }

    /// The cached dense layout must give every later run — and every
    /// width — what a fresh transpiler computes.
    #[test]
    fn cached_layouts_match_a_fresh_transpiler() {
        let t = Transpiler::new(CouplingMap::ibm_h7(), Level::Level3);
        for width in [4, 2, 4, 3] {
            let mut qc = QuantumCircuit::new(width, width);
            qc.h(0);
            for q in 1..width {
                qc.cx(0, q);
            }
            qc.measure_all();
            let cached = t.run(&qc).unwrap();
            let fresh = Transpiler::new(CouplingMap::ibm_h7(), Level::Level3)
                .run(&qc)
                .unwrap();
            assert_eq!(cached.circuit(), fresh.circuit());
            assert_eq!(cached.initial_layout(), fresh.initial_layout());
            assert_eq!(cached.final_layout(), fresh.final_layout());
            assert_eq!(
                cached.coupled_logical_pairs(),
                fresh.coupled_logical_pairs()
            );
            for l in 0..width {
                assert_eq!(cached.logical_neighbors(l), fresh.logical_neighbors(l));
            }
        }
    }

    #[test]
    fn active_qubits_cover_layout() {
        let qc = bv3();
        let t = Transpiler::new(CouplingMap::ibm_h7(), Level::Level3);
        let result = t.run(&qc).unwrap();
        let active = result.active_physical_qubits();
        for l in 0..4 {
            assert!(active.contains(&result.physical_qubit(l)));
        }
        assert!(active.len() >= 4);
    }

    #[test]
    fn basis_translation_can_be_disabled() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).cz(0, 1);
        let t = Transpiler::new(CouplingMap::line(2), Level::Level0).with_basis_translation(false);
        let result = t.run(&qc).unwrap();
        let has_cz = result
            .circuit()
            .instructions()
            .any(|op| matches!(op, Op::Gate { gate: Gate::Cz, .. }));
        assert!(has_cz, "cz should survive with basis translation off");
    }

    #[test]
    fn too_wide_circuit_errors() {
        let qc = QuantumCircuit::new(9, 0);
        let t = Transpiler::new(CouplingMap::ibm_h7(), Level::Level1);
        assert!(matches!(
            t.run(&qc),
            Err(TranspileError::CircuitTooWide { .. })
        ));
    }

    #[test]
    fn seven_qubit_circuit_fills_device() {
        let mut qc = QuantumCircuit::new(7, 7);
        qc.h(0);
        for i in 0..6 {
            qc.cx(i, i + 1);
        }
        qc.measure_all();
        let t = Transpiler::new(CouplingMap::ibm_h7(), Level::Level3);
        let result = t.run(&qc).unwrap();
        check_equivalence(&qc, &result);
        assert_eq!(result.active_physical_qubits().len(), 7);
    }
}
