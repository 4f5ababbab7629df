//! Placement pin: every decision the two transpilers make — the
//! SWAP-emitting cache-blocking pass and the greedy and beam
//! comm-avoiding passes — folded into one FNV-1a digest over a seeded
//! set of circuits × rank counts. A change to the victim rule, the batch
//! search or the step coalescing moves the digest.

use qse_circuit::hash::Fnv1a;
use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::transpile::{cache_block, comm_avoid, ByteOracle, Plan, PlanStep, Strategy};
use qse_circuit::{Circuit, Gate, Layout, Permutation};

/// Digest recorded before the transpilers shared one placement step.
const PINNED: u64 = 0x5f2caf801a707f76;

/// QFT plus two random `Full` and two random `QftLike` circuits per
/// width, n = 6..=14: 45 circuits.
fn circuits() -> Vec<Circuit> {
    let mut out = Vec::new();
    for n in 6..=14u32 {
        out.push(qft(n));
        let gates = 6 * n as usize;
        for seed in [100, 101].map(|s| s * u64::from(n)) {
            out.push(random_circuit(n, gates, GatePool::Full, seed));
            out.push(random_circuit(n, gates, GatePool::QftLike, seed + 1));
        }
    }
    out
}

fn fold_gate(h: &mut Fnv1a, g: &Gate) {
    h.update(format!("G{g:?};").as_bytes());
}

fn fold_layout(h: &mut Fnv1a, p: &Permutation) {
    h.update(b"L");
    for q in 0..p.len() {
        h.update(&p.apply(q).to_le_bytes());
    }
}

fn fold_plan(h: &mut Fnv1a, plan: &Plan) {
    for step in &plan.steps {
        match step {
            PlanStep::Gate(g) => fold_gate(h, g),
            PlanStep::Permute(p) => {
                h.update(b"P");
                fold_layout(h, p);
            }
        }
    }
    fold_layout(h, &plan.layout);
}

fn placement_digest() -> u64 {
    let mut h = Fnv1a::new();
    for c in circuits() {
        for ranks in [2u64, 4, 8, 16] {
            let layout = Layout::new(c.n_qubits(), ranks);
            let blocked = cache_block(&c, layout.local_qubits());
            for g in blocked.circuit.gates() {
                fold_gate(&mut h, g);
            }
            fold_layout(&mut h, &blocked.layout);
            for strategy in [Strategy::Greedy, Strategy::beam()] {
                fold_plan(&mut h, &comm_avoid(&c, &layout, strategy, &ByteOracle));
            }
        }
    }
    h.digest()
}

#[test]
fn placement_decisions_are_pinned() {
    let digest = placement_digest();
    assert_eq!(digest, PINNED, "placement digest moved: {digest:#018x}");
}
