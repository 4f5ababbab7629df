//! The distributed statevector engine — QuEST's execution model (§2.1).
//!
//! "QuEST requires the statevector to be split evenly across 2^n
//! processes. This ensures pairwise communication for any given gate. It
//! also means that the entire local statevector needs to be exchanged."
//!
//! Each rank of a [`qse_comm::Universe`] owns `2^{n−r}` amplitudes. Gates
//! dispatch on the paper's locality classes:
//!
//! * fully local (diagonal) → one phase sweep, no communication;
//! * local memory → in-place pair kernel;
//! * distributed → chunked exchange with the single pair rank
//!   (`rank XOR 2^{q−(n−r)}`), then a linear combine.
//!
//! Distributed SWAPs additionally support the paper's future-work *half
//! exchange* (§4): only the amplitudes whose swap bits differ move, which
//! halves both traffic and buffer requirements.

use crate::diagonal::CompiledDiagonal;
use crate::schedule::{Schedule, Step};
use crate::storage::kernel::wire_amp;
use crate::storage::{extend_over_pool, SoaStorage, AMP_BYTES};
use qse_circuit::classify::{GateClass, Layout};
use qse_circuit::lower::{lower_gate, BlockMap, Exchange, Kernel, PermuteLowering};
use qse_circuit::transpile::Plan;
use qse_circuit::{Circuit, Gate, Permutation};
pub use qse_comm::chunking::DistConfig;
use qse_comm::chunking::{drive, ChunkedExchange, PackOrder, TagSeq, ONE_SIDED_MODE};
use qse_comm::collective;
use qse_comm::Result as CommResult;
use qse_comm::{CommError, Communicator, TrafficStats};
use qse_math::Complex64;
use qse_util::Bytes;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

mod readout;

pub use readout::ReadOut;

/// Per-rank view of a distributed statevector. Lives inside one rank's
/// thread and borrows that rank's [`Communicator`].
pub struct DistributedState<'c> {
    comm: &'c mut Communicator,
    layout: Layout,
    amps: SoaStorage,
    config: DistConfig,
    // No exchange scratch lives here: a distributed gate packs each wire
    // chunk straight from `amps` and runs its kernel straight on the
    // peer's payload (§2.1's "entire local statevector" is gigabytes per
    // process at scale, so every staged copy of it is real money).
    tags: TagSeq,
    /// Packs every full-exchange SWAP eagerly, as the engine once always
    /// did: the oracle the lazy order is tested against.
    #[cfg(test)]
    eager_swaps: bool,
}

impl<'c> DistributedState<'c> {
    /// Creates |00…0⟩ distributed over every rank of `comm`'s universe.
    pub fn zero_state(comm: &'c mut Communicator, n_qubits: u32, config: DistConfig) -> Self {
        Self::basis_state(comm, n_qubits, 0, config)
    }

    /// Creates the computational basis state |index⟩.
    pub fn basis_state(
        comm: &'c mut Communicator,
        n_qubits: u32,
        index: u64,
        config: DistConfig,
    ) -> Self {
        let layout = Layout::new(n_qubits, comm.size() as u64);
        let offset = comm.rank() as u64 * layout.local_amps();
        let amps = SoaStorage::basis(crate::ix(layout.local_amps()), offset, index);
        DistributedState {
            comm,
            layout,
            amps,
            config,
            tags: TagSeq::default(),
            #[cfg(test)]
            eager_swaps: false,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// The register/rank layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The global index of this rank's first amplitude.
    pub fn rank_offset(&self) -> u64 {
        self.rank() as u64 * self.layout.local_amps()
    }

    /// Immutable access to the local amplitudes.
    pub fn local(&self) -> &SoaStorage {
        &self.amps
    }

    /// Communication statistics for this rank.
    pub fn stats(&self) -> TrafficStats {
        self.comm.stats()
    }

    /// Synchronises every rank (delegates to the communicator barrier).
    pub fn barrier(&self) {
        self.comm.barrier();
    }

    /// One lowered pairwise exchange `ex` under wire tag `tag` — "the
    /// entire local statevector needs to be exchanged – 64 GB per process
    /// on ARCHER2" (§2.1) — through the chunk driver under the configured
    /// mode. `pack(amps, start, n, out)` serialises payload amplitudes
    /// `[start, start + n)` straight from storage into the outgoing chunk;
    /// `apply(amps, start, payload)` runs the gate's range kernel straight
    /// on the peer's bytes from payload amplitude `start`: one write and
    /// one read per exchanged byte.
    ///
    /// Chunk boundaries stay exactly `ChunkPolicy`'s: both modes consume
    /// chunks in order and cut wherever the cap falls — mid-amplitude
    /// when it is not a multiple of 16 — and an [`AmpCursor`] carries the
    /// cut amplitude over, so `apply` gets whole amplitudes as views of
    /// the chunks they arrived in. `order` is `Lazy` when `apply` over
    /// payload amplitudes `[a, b)` writes only storage that payload
    /// amplitudes below `b` are packed from ([`PackOrder`]).
    fn pair_exchange(
        &mut self,
        ex: &Exchange,
        tag: u64,
        order: PackOrder,
        pack: impl Fn(&SoaStorage, usize, usize, &mut Vec<u8>),
        mut apply: impl FnMut(&mut SoaStorage, usize, Bytes),
    ) -> CommResult<()> {
        let bytes = crate::ix(ex.amps) * AMP_BYTES;
        let mut cursor = AmpCursor::default();
        drive(
            self.comm,
            self.config.exchange_mode,
            ChunkedExchange {
                peer: crate::ix(ex.peer),
                base_tag: tag,
                policy: self.config.chunk_policy,
                send_total: bytes,
                recv_total: bytes,
            },
            order,
            &mut self.amps,
            |amps, range, out| {
                pack_wire_bytes(range, out, |start, n, out| pack(amps, start, n, out))
            },
            |amps, range, payload| {
                cursor.feed(range.start, payload, |start, piece| {
                    apply(amps, start, piece)
                })
            },
        )
    }

    /// The pack order of a full-exchange SWAP of local qubit `lo` with a
    /// global qubit whose bit on this rank is `bit`. Its scatter writes
    /// peer amplitude `i` to `i ^ 2^lo`, a slot the peer needs from this
    /// rank. Where `bit` is 1 that slot lies below `i`, in a chunk
    /// already sent; where it is 0 it lies above, in the same
    /// `2^(lo+1)`-amplitude group, so it went out with the chunk that
    /// brought `i` when every chunk boundary falls between two groups.
    /// Otherwise — a group cut by the cap — a later outgoing chunk still
    /// carries it, and everything is packed before anything lands.
    fn swap_pack_order(&self, lo: u32, bit: u64) -> PackOrder {
        #[cfg(test)]
        if self.eager_swaps {
            return PackOrder::Eager;
        }
        let cap = self.config.chunk_policy.max_message_bytes;
        let group = AMP_BYTES << lo << 1;
        if bit == 1 || cap.is_multiple_of(group) {
            PackOrder::Lazy
        } else {
            PackOrder::Eager
        }
    }

    /// Applies one gate, communicating as its locality class requires.
    /// Fails when the underlying exchange fails: with
    /// [`CommError::Aborted`] `{ by, cause }` when another rank failed and
    /// aborted the universe, [`CommError::RecvTimeout`] when a chunk did
    /// not arrive by the deadline, or the transport error this rank hit
    /// itself (`Disconnected`, `ChunkLength`, and under a fault plan
    /// `Transient` or `Corrupt`). Fails with [`CommError::PlanRejected`]
    /// on every rank when the layout cannot lower the gate — pure-local
    /// gates always succeed.
    pub fn apply(&mut self, gate: &Gate) -> CommResult<()> {
        self.apply_classified(gate).map(|_| ())
    }

    /// [`Self::apply`], reporting the locality class it dispatched on.
    fn apply_classified(&mut self, gate: &Gate) -> CommResult<GateClass> {
        let rank = self.rank() as u64;
        let lowered = lower_gate(gate, &self.layout, rank, self.config.half_exchange_swaps)
            .map_err(|e| CommError::PlanRejected {
                detail: e.to_string(),
            })?;
        match lowered.class {
            GateClass::FullyLocal => {
                let offset = self.rank_offset();
                self.amps
                    .apply_fused_diagonal(offset, &CompiledDiagonal::compile([gate]));
            }
            GateClass::LocalMemory => {
                match *gate {
                    Gate::Swap(a, b) => self.amps.swap_local(a, b),
                    Gate::Unitary2 { a, b, ref matrix } => self.amps.apply_orbit4(a, b, matrix),
                    ref g => {
                        let Some(m) = g.matrix1() else {
                            unreachable!("classify only routes single-target gates here")
                        };
                        match g.control() {
                            Some(c) if !self.layout.is_local(c) => {
                                // Global control: this rank applies the plain
                                // gate iff its control bit is set.
                                if self.rank_bit_value(c) == 1 {
                                    self.amps.apply_pairs(g.target(), &m, None);
                                }
                            }
                            ctrl => self.amps.apply_pairs(g.target(), &m, ctrl),
                        }
                    }
                }
            }
            GateClass::Distributed => {
                let tag = self.tags.take(lowered.tags);
                for ex in lowered.exchanges() {
                    self.run_exchange(gate, ex, tag(ex.tag))?;
                }
            }
        }
        Ok(lowered.class)
    }

    /// The value of this rank's address bit for global qubit `q`.
    fn rank_bit_value(&self, q: u32) -> u64 {
        (self.rank() as u64 >> self.layout.rank_bit(q)) & 1
    }

    /// Runs one lowered exchange of `gate` under wire tag `tag`: its
    /// kernel names the pack, the pack order and the range kernel.
    fn run_exchange(&mut self, gate: &Gate, ex: &Exchange, tag: u64) -> CommResult<()> {
        let pack_all = SoaStorage::pack_range;
        match ex.kernel {
            Kernel::Row { bit, control } => {
                let Some(m) = gate.matrix1() else {
                    unreachable!("row combines lower from single-target gates")
                };
                let b = crate::ix(bit);
                let (c_mine, c_theirs) = (m.at(b, b), m.at(b, 1 - b));
                // The combine of amplitude i reads and writes amplitude i only.
                self.pair_exchange(
                    ex,
                    tag,
                    PackOrder::Lazy,
                    pack_all,
                    |amps, start, payload| {
                        amps.apply_distributed_1q_range(c_mine, c_theirs, &payload, start, control)
                    },
                )
            }
            Kernel::Orbit { lo, bit, swapped } => {
                let Gate::Unitary2 { ref matrix, .. } = *gate else {
                    unreachable!("orbit combines lower from Unitary2")
                };
                // The orbit basis is |hi lo⟩: a gate naming its qubits the
                // other way round is conjugated by SWAP, which reorders the
                // matrix instead of the amplitudes.
                let s = qse_math::Matrix4::swap();
                let m = if swapped {
                    s.matmul(&matrix.matmul(&s))
                } else {
                    *matrix
                };
                // The 4×4 combine works on whole |hi lo⟩ orbits of 2^{lo+1}
                // amplitudes and writes only the orbits it is handed.
                let mut pairs = OrbitPairs::new(lo);
                self.pair_exchange(
                    ex,
                    tag,
                    PackOrder::Lazy,
                    pack_all,
                    |amps, start, payload| {
                        pairs.feed(start, payload, |at, t_lo, t_hi| {
                            amps.apply_distributed_2q_range(lo, bit, &m, t_lo, t_hi, at)
                        })
                    },
                )
            }
            // Send the half the peer needs (bit_lo == 1 − bit), receive the
            // half we need (bit_lo == bit on their side) into the very slots just
            // sent: the payload numbers those slots, so payload amplitude k
            // lands where payload amplitude k left.
            Kernel::HalfSwap { lo, bit } => self.pair_exchange(
                ex,
                tag,
                PackOrder::Lazy,
                |amps, start, n, out| amps.pack_half_bit_range(lo, 1 - bit, start, n, out),
                |amps, start, payload| amps.write_half_bit_range(lo, 1 - bit, &payload, start),
            ),
            // QuEST-style: exchange everything, use half of it. The
            // scatter writes a slot other than the one it reads, so the
            // pack order depends on where ([`Self::swap_pack_order`]).
            Kernel::Swap { lo, bit } => {
                let order = self.swap_pack_order(lo, bit);
                self.pair_exchange(ex, tag, order, pack_all, |amps, start, payload| {
                    amps.apply_distributed_swap_range(lo, bit, &payload, start)
                })
            }
            Kernel::Replace => self.pair_exchange(
                ex,
                tag,
                PackOrder::Lazy,
                pack_all,
                |amps, start, payload| amps.copy_from_f64_range(&payload, start),
            ),
        }
    }

    /// Runs a circuit: each run of local gates in one blocked pass.
    pub fn run(&mut self, circuit: &Circuit) -> CommResult<()> {
        self.run_schedule(
            &Schedule::for_circuit(circuit, self.layout.n_ranks()),
            |_, _| {},
        )
    }

    /// Walks a lowered [`Schedule`] — the engine's one step loop, behind
    /// [`Self::run`], [`Self::run_plan`] and the thread-cluster executor
    /// (which lowers once and shares the schedule between its ranks).
    /// After each step `observe` receives the locality class it ran as
    /// and its wall-clock: a local run is [`LocalRun::class`], a
    /// `Permute` is distributed.
    ///
    /// [`LocalRun::class`]: crate::schedule::LocalRun::class
    pub fn run_schedule(
        &mut self,
        schedule: &Schedule<'_>,
        mut observe: impl FnMut(GateClass, Duration),
    ) -> CommResult<()> {
        assert_eq!(
            *schedule.layout(),
            self.layout,
            "schedule lowered for another layout"
        );
        let offset = self.rank_offset();
        for step in schedule.steps() {
            let t = Instant::now();
            let class = match step {
                Step::Gate(g) => self.apply_classified(g)?,
                Step::Local(run) => {
                    self.amps.apply_local_run(offset, run);
                    run.class()
                }
                Step::Permute(p) => {
                    self.apply_global_permutation(p)?;
                    GateClass::Distributed
                }
            };
            observe(class, t.elapsed());
        }
        Ok(())
    }

    /// Applies an index-bit permutation to the whole distributed state:
    /// afterwards the amplitude that lived at global index `i` lives at
    /// `perm.permute_index(i)`.
    ///
    /// This is the lowering target of the comm-avoiding transpiler's
    /// `Permute` steps. Where the gate engine realises a k-transposition
    /// layout change as k pairwise exchanges (each shipping the full
    /// local slice), this routine moves every amplitude across the wire
    /// at most once: it runs the factoring `P = L2 ∘ G ∘ L1`
    /// ([`PermuteLowering`]) as L1's [`SoaStorage::swap_local`] sweeps,
    /// G's in-place block exchange (`Self::exchange_blocks`) and L2's
    /// sweeps. A rank's payload is `(1 − 2⁻ᵐ)` of its slice, `m` being
    /// the number of local bits P sends to rank positions — batching k
    /// swap-ins costs `1 − 2⁻ᵏ` of the slice instead of k full-slice
    /// exchanges. A permutation fixing every rank position is sweeps
    /// only: zero bytes on the wire, no tag. Both sides derive the payload
    /// order (ascending within the block) from the permutation alone, so
    /// no index metadata travels.
    pub fn apply_global_permutation(&mut self, perm: &Permutation) -> CommResult<()> {
        assert_eq!(
            perm.len(),
            self.layout.n_qubits(),
            "permutation width mismatch"
        );
        let lowering = PermuteLowering::new(perm, self.layout.local_qubits());
        for &(a, b) in &lowering.l1 {
            self.amps.swap_local(a, b);
        }
        if lowering.blocks.tags() > 0 {
            self.exchange_blocks(&lowering.blocks)?;
        }
        // `as_transpositions` factors L2 = T1∘…∘Tk with the state map of
        // "apply Tk first, T1 last" equal to Π(L2).
        for &(a, b) in lowering.l2.as_transpositions().iter().rev() {
            self.amps.swap_local(a, b);
        }
        Ok(())
    }

    /// G of [`Self::apply_global_permutation`]: each block `u → v` is one
    /// contiguous run of amplitudes on both sides, packed straight from
    /// storage and received in place, in the order [`BlockMap::sends`]
    /// and [`BlockMap::receives`] give them.
    fn exchange_blocks(&mut self, g: &BlockMap) -> CommResult<()> {
        let tag = self.tags.take(g.tags())(0);
        let (me, ranks) = (self.rank() as u64, self.layout.n_ranks());
        let block = crate::ix(g.block_amps());
        // Both halves run under `ONE_SIDED_MODE` with one side empty,
        // whatever the configured mode: eager sends to every peer first
        // (ascending, chunked) — the mailbox transport buffers them, so no
        // receive can deadlock — then ascending receives.
        let policy = self.config.chunk_policy;
        let half = |peer: u64, send_amps: usize, recv_amps: usize| ChunkedExchange {
            peer: crate::ix(peer),
            base_tag: tag,
            policy,
            send_total: send_amps * AMP_BYTES,
            recv_total: recv_amps * AMP_BYTES,
        };
        for (v, t) in g.sends(me, ranks) {
            let start = crate::ix(t) * block;
            drive(
                self.comm,
                ONE_SIDED_MODE,
                half(v, block, 0),
                PackOrder::Lazy,
                &mut self.amps,
                |amps, range, out| {
                    pack_wire_bytes(range, out, |at, n, out| amps.pack_range(start + at, n, out))
                },
                |_, _, _| {},
            )?;
        }
        // Every peer block has left, so each incoming one may land where
        // it belongs.
        for (w, t) in g.receives(me, ranks) {
            let start = crate::ix(t) * block;
            let mut cursor = AmpCursor::default();
            drive(
                self.comm,
                ONE_SIDED_MODE,
                half(w, 0, block),
                PackOrder::Lazy,
                &mut self.amps,
                |_, _, _| {},
                |amps, range, payload| {
                    cursor.feed(range.start, payload, |at, piece| {
                        amps.copy_from_f64_range(&piece, start + at)
                    })
                },
            )?;
        }
        Ok(())
    }

    /// Runs a comm-avoiding [`Plan`]: the gate segments between `Permute`
    /// steps lower like circuits, and `Permute` steps lower to
    /// [`Self::apply_global_permutation`].
    pub fn run_plan(&mut self, plan: &Plan) -> CommResult<()> {
        self.run_schedule(&Schedule::for_plan(plan, self.layout.n_ranks()), |_, _| {})
    }

    /// Gathers the full statevector on rank 0 (`None` elsewhere): the
    /// result a dense run hands to `qse run`, to serve and to sampling,
    /// all `2^n` amplitudes in one vector. Every other rank packs its
    /// slice straight into the one payload it sends. Rank 0 converts its
    /// own slice while they pack, then decodes each payload into its
    /// place in the result; both go over the worker pool
    /// (`extend_over_pool`), and each result amplitude is written once.
    pub fn gather(&mut self) -> CommResult<Option<Vec<Complex64>>> {
        let local = self.amps.len();
        if self.rank() != 0 {
            let mut payload = Vec::with_capacity(local * AMP_BYTES);
            self.amps.pack_range(0, local, &mut payload);
            collective::gather(self.comm, 0, Bytes::from(payload))?;
            return Ok(None);
        }
        let mut full = Vec::with_capacity(local * self.comm.size());
        let amps = &self.amps;
        extend_over_pool(&mut full, local, |r| amps.amplitudes(r));
        let Some(parts) = collective::gather(self.comm, 0, Bytes::new())? else {
            unreachable!("rank 0 is the gather's root")
        };
        for (src, part) in parts.iter().enumerate().skip(1) {
            if part.len() != local * AMP_BYTES {
                return Err(CommError::ChunkLength {
                    src,
                    tag: collective::TAG_GATHER,
                    expected: local * AMP_BYTES,
                    got: part.len(),
                });
            }
        }
        for part in &parts[1..] {
            extend_over_pool(&mut full, local, |r| {
                part[r.start * AMP_BYTES..r.end * AMP_BYTES]
                    .chunks_exact(AMP_BYTES)
                    .map(wire_amp)
            });
        }
        Ok(Some(full))
    }
}

/// Re-frames an incoming payload, cut into chunks wherever the message
/// cap fell, into whole amplitudes. A chunk that ends inside an
/// amplitude leaves its head in `carry` — under [`AMP_BYTES`] bytes —
/// and the next chunk completes it. Everything else is handed on in
/// place, as a view of the chunk it arrived in.
#[derive(Default)]
pub(crate) struct AmpCursor {
    carry: Vec<u8>,
}

impl AmpCursor {
    /// Takes payload bytes `[at, at + chunk.len())` and calls
    /// `f(first_amp, amps)` for the whole amplitudes they complete.
    pub(crate) fn feed(&mut self, mut at: usize, chunk: &Bytes, mut f: impl FnMut(usize, Bytes)) {
        let mut from = 0;
        if !self.carry.is_empty() {
            from = (AMP_BYTES - self.carry.len()).min(chunk.len());
            self.carry.extend_from_slice(&chunk[..from]);
            at += from;
            if self.carry.len() < AMP_BYTES {
                return;
            }
            f(
                at / AMP_BYTES - 1,
                Bytes::from(std::mem::take(&mut self.carry)),
            );
        }
        // Holds because both exchange modes consume chunks in order.
        assert_eq!(
            at % AMP_BYTES,
            0,
            "a chunk cutting an amplitude arrived out of order"
        );
        let whole = from + (chunk.len() - from) / AMP_BYTES * AMP_BYTES;
        if whole > from {
            f(at / AMP_BYTES, chunk.slice(from..whole));
        }
        self.carry.extend_from_slice(&chunk[whole..]);
    }
}

/// Pairs up the peer's halves of the two-qubit combine's orbits: an orbit
/// spans `2·half` amplitudes and the kernel needs the peer's low and
/// high half together, but the in-order modes cut chunks wherever the cap
/// falls. Whole orbits inside one piece go straight to the kernel; a
/// low-half piece of a cut orbit is *kept* — a view of the chunk it
/// arrived in, not a copy — until its high-half partner arrives (what no
/// in-order consumer can avoid: both are inputs of every output).
pub(crate) struct OrbitPairs {
    half: usize,
    lows: VecDeque<(usize, Bytes)>,
}

impl OrbitPairs {
    pub(crate) fn new(local_qubit: u32) -> Self {
        OrbitPairs {
            half: 1 << local_qubit,
            lows: VecDeque::new(),
        }
    }

    /// Takes the peer's amplitudes from `at` on and calls
    /// `f(start, lo, hi)` with equally long views of its amplitudes from
    /// `start` (a low half) and from `start + half`.
    pub(crate) fn feed(
        &mut self,
        mut at: usize,
        mut piece: Bytes,
        mut f: impl FnMut(usize, &[u8], &[u8]),
    ) {
        let (h, orbit) = (self.half, 2 * self.half);
        while !piece.is_empty() {
            let n = piece.len() / AMP_BYTES;
            let take = if self.lows.is_empty() && at.is_multiple_of(orbit) && n >= orbit {
                let whole = n / orbit * orbit;
                f(
                    at,
                    &piece[..(whole - h) * AMP_BYTES],
                    &piece[h * AMP_BYTES..whole * AMP_BYTES],
                );
                whole
            } else {
                // Up to the next half-orbit boundary.
                let take = n.min(h - at % h);
                let mut hi = piece.slice(0..take * AMP_BYTES);
                if at & h == 0 {
                    self.lows.push_back((at, hi));
                } else {
                    while !hi.is_empty() {
                        let Some((lo_at, lo)) = self.lows.pop_front() else {
                            unreachable!("chunks that cut an orbit arrive low half first")
                        };
                        let m = lo.len().min(hi.len());
                        f(lo_at, &lo[..m], &hi[..m]);
                        if m < lo.len() {
                            self.lows
                                .push_front((lo_at + m / AMP_BYTES, lo.slice(m..lo.len())));
                        }
                        hi = hi.slice(m..hi.len());
                    }
                }
                take
            };
            at += take;
            piece = piece.slice(take * AMP_BYTES..piece.len());
        }
    }
}

/// Appends wire bytes `range` of an outgoing payload whose amplitudes
/// `pack(first_amp, n, out)` serialises. A chunk cap that is not a
/// multiple of [`AMP_BYTES`] cuts amplitudes; a cut amplitude is
/// serialised whole and the chunk takes its share of the bytes.
pub(crate) fn pack_wire_bytes(
    range: Range<usize>,
    out: &mut Vec<u8>,
    pack: impl Fn(usize, usize, &mut Vec<u8>),
) {
    let mut at = range.start;
    while at < range.end {
        let amp = at / AMP_BYTES;
        let amp_end = (amp + 1) * AMP_BYTES;
        if at.is_multiple_of(AMP_BYTES) && amp_end <= range.end {
            let whole = range.end / AMP_BYTES - amp;
            pack(amp, whole, out);
            at += whole * AMP_BYTES;
        } else {
            let mut one = Vec::with_capacity(AMP_BYTES);
            pack(amp, 1, &mut one);
            let end = amp_end.min(range.end);
            out.extend_from_slice(&one[at - amp * AMP_BYTES..end - amp * AMP_BYTES]);
            at = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceState;
    use crate::storage::PAR_THRESHOLD;
    use qse_circuit::qft::{cache_blocked_qft, qft};
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_circuit::transpile::cache_blocking::cache_block;
    use qse_circuit::Permutation;
    use qse_comm::chunking::{ChunkPolicy, ExchangeMode};
    use qse_comm::Universe;
    use qse_math::approx::assert_slices_close;

    /// Runs `circuit` distributed over `ranks` ranks and returns the full
    /// state gathered on rank 0.
    fn simulate_dist(
        circuit: &Circuit,
        ranks: usize,
        config: DistConfig,
        basis: u64,
    ) -> Vec<Complex64> {
        let out = Universe::new(ranks).run(|comm| {
            let mut st = DistributedState::basis_state(comm, circuit.n_qubits(), basis, config);
            st.run(circuit).unwrap();
            st.gather().unwrap()
        });
        out.into_iter().flatten().next().expect("rank 0 gathered")
    }

    fn reference(circuit: &Circuit, basis: u64) -> Vec<Complex64> {
        let mut r = ReferenceState::basis_state(circuit.n_qubits(), basis);
        r.run(circuit);
        r.amplitudes().to_vec()
    }

    #[test]
    fn single_rank_matches_reference() {
        let c = random_circuit(6, 80, GatePool::Full, 1);
        let got = simulate_dist(&c, 1, DistConfig::default(), 0);
        assert_slices_close(&got, &reference(&c, 0), 1e-9);
    }

    #[test]
    fn multi_rank_matches_reference() {
        for ranks in [2usize, 4, 8] {
            for seed in 0..3 {
                let c = random_circuit(7, 60, GatePool::Full, seed);
                let got = simulate_dist(&c, ranks, DistConfig::default(), 5);
                assert_slices_close(&got, &reference(&c, 5), 1e-9);
            }
        }
    }

    #[test]
    fn qft_distributed_matches_reference() {
        let c = qft(8);
        for ranks in [2usize, 4, 8, 16] {
            let got = simulate_dist(&c, ranks, DistConfig::default(), 201);
            assert_slices_close(&got, &reference(&c, 201), 1e-9);
        }
    }

    #[test]
    fn cache_blocked_qft_distributed_matches_reference() {
        let n = 8;
        let c = cache_blocked_qft(n, 5);
        let want = reference(&qft(n), 99);
        let got = simulate_dist(&c, 8, DistConfig::default(), 99);
        assert_slices_close(&got, &want, 1e-9);
    }

    #[test]
    fn half_exchange_halves_swap_traffic() {
        let mut c = Circuit::new(6);
        c.swap(0, 5); // one-global swap: the half-exchangeable case
        let bytes = |half: bool| {
            let config = DistConfig {
                half_exchange_swaps: half,
                ..DistConfig::default()
            };
            let stats = Universe::new(4).run(|comm| {
                let mut st = DistributedState::zero_state(comm, 6, config);
                st.run(&c).unwrap();
                st.barrier();
                st.stats().bytes_sent
            });
            stats.into_iter().sum::<u64>()
        };
        let full = bytes(false);
        let half = bytes(true);
        assert_eq!(half * 2, full);
        assert!(full > 0);
    }

    #[test]
    fn local_runs_match_gate_at_a_time_distributed() {
        // `run` applies each local run in one blocked pass; against a
        // per-gate `apply` loop the contract is bit-for-bit equality.
        let c = random_circuit(7, 80, GatePool::Full, 21);
        let run = simulate_dist(&c, 4, DistConfig::default(), 0);
        let out = Universe::new(4).run(|comm| {
            let mut st = DistributedState::zero_state(comm, 7, DistConfig::default());
            for g in c.gates() {
                st.apply(g).unwrap();
            }
            st.gather().unwrap()
        });
        let plain = out.into_iter().flatten().next().expect("rank 0 gathered");
        assert_eq!(plain.len(), run.len());
        for (i, (p, f)) in plain.iter().zip(&run).enumerate() {
            assert_eq!(p.re.to_bits(), f.re.to_bits(), "re at {i}");
            assert_eq!(p.im.to_bits(), f.im.to_bits(), "im at {i}");
        }
    }

    #[test]
    fn transpiled_circuit_equals_original_up_to_layout() {
        // Contract of the general cache-blocking pass: T = Π(layout) · C.
        let n = 7;
        let c = random_circuit(n, 60, GatePool::Full, 55);
        let layout_local = 4u32; // pretend 8 ranks (3 global qubits)
        let t = cache_block(&c, layout_local);
        let orig = reference(&c, 0);
        let got = simulate_dist(&t.circuit, 8, DistConfig::default(), 0);
        // got[π(i)] should equal orig[i], where π moves bit q to layout(q).
        let perm: &Permutation = &t.layout;
        let mut unpermuted = vec![Complex64::ZERO; orig.len()];
        for (i, &amp) in orig.iter().enumerate() {
            unpermuted[perm.permute_index(i as u64) as usize] = amp;
        }
        assert_slices_close(&got, &unpermuted, 1e-9);
    }

    #[test]
    fn distributed_gate_moves_expected_bytes() {
        // One distributed H on 4 ranks of a 6-qubit register: each rank
        // exchanges its full 16-amplitude slice (256 bytes) once.
        let stats = Universe::new(4).run(|comm| {
            let mut st = DistributedState::zero_state(comm, 6, DistConfig::default());
            st.apply(&Gate::H(5)).unwrap();
            st.barrier();
            st.stats()
        });
        for s in &stats {
            assert_eq!(s.bytes_sent, 16 * 16);
            assert_eq!(s.bytes_received, 16 * 16);
        }
    }

    #[test]
    fn diagonal_gates_move_no_bytes() {
        let stats = Universe::new(4).run(|comm| {
            let mut st = DistributedState::zero_state(comm, 6, DistConfig::default());
            st.apply(&Gate::Z(5)).unwrap();
            st.apply(&Gate::CPhase {
                a: 4,
                b: 5,
                theta: 0.3,
            })
            .unwrap();
            st.apply(&Gate::T(5)).unwrap();
            st.barrier();
            st.stats()
        });
        for s in &stats {
            assert_eq!(s.bytes_sent, 0);
        }
    }

    #[test]
    fn global_control_local_target_no_comm() {
        let c = {
            let mut c = Circuit::new(6);
            c.h(0).cnot(5, 0);
            c
        };
        let got = simulate_dist(&c, 4, DistConfig::default(), 0b100000);
        assert_slices_close(&got, &reference(&c, 0b100000), 1e-12);
        // and it must not have communicated
        let stats = Universe::new(4).run(|comm| {
            let mut st = DistributedState::basis_state(comm, 6, 0b100000, DistConfig::default());
            st.run(&c).unwrap();
            st.barrier();
            st.stats().bytes_sent
        });
        assert!(stats.iter().all(|&b| b == 0));
    }

    #[test]
    fn global_control_global_target_cnot() {
        let mut c = Circuit::new(6);
        c.h(4).h(5).cnot(4, 5).h(0);
        for ranks in [4usize, 8] {
            let got = simulate_dist(&c, ranks, DistConfig::default(), 7);
            assert_slices_close(&got, &reference(&c, 7), 1e-9);
        }
    }

    #[test]
    fn unlowerable_gate_is_rejected_on_every_rank() {
        // Two qubits on four ranks: both are global and no local qubit is
        // left to swap one through, so every rank refuses the gate with
        // the lowering's diagnosis instead of recursing.
        let gate = Gate::Unitary2 {
            a: 0,
            b: 1,
            matrix: qse_math::Matrix4::swap(),
        };
        let errs = Universe::new(4).run(|comm| {
            let mut st = DistributedState::zero_state(comm, 2, DistConfig::default());
            let err = st.apply(&gate).unwrap_err();
            (err, st.stats().messages_sent)
        });
        for (err, sent) in errs {
            let detail = "both-global Unitary2 needs at least one local qubit".to_string();
            assert_eq!(err, CommError::PlanRejected { detail });
            assert_eq!(sent, 0);
        }
    }

    /// Seeded random permutations of `n` bits plus the shapes the
    /// transpiler emits.
    fn permutation_zoo(n: u32) -> Vec<(&'static str, Permutation)> {
        use qse_util::rng::{Rng, StdRng};
        let swapped = |pairs: &[(u32, u32)]| {
            let mut p = Permutation::identity(n);
            for &(a, b) in pairs {
                p.swap(a, b);
            }
            p
        };
        let mut zoo = vec![
            // The restore step of a reversed layout: the top rank bit
            // lands on local bit 0.
            ("reversal", Permutation::reversal(n)),
            ("single swap-in", swapped(&[(n / 2, n - 1)])),
            ("double swap-in", swapped(&[(n / 2, n - 1), (0, n - 2)])),
            ("global<->global", swapped(&[(n - 2, n - 1)])),
            ("purely local", swapped(&[(0, 2), (1, 2)])),
            (
                "full-register cycle",
                Permutation::from_map((0..n).map(|q| (q + 1) % n).collect()),
            ),
        ];
        let mut rng = StdRng::seed_from_u64(u64::from(n));
        for _ in 0..3 {
            let mut map: Vec<u32> = (0..n).collect();
            for i in (1..map.len()).rev() {
                map.swap(i, rng.random_range(0..=i));
            }
            zoo.push(("random", Permutation::from_map(map)));
        }
        zoo
    }

    /// Amplitude `i` of a state in which every amplitude is distinct and
    /// both signs of zero are stored, so a misplaced one cannot hide.
    fn distinct_amp(i: u64) -> Complex64 {
        match i {
            0 => Complex64::new(0.0, -0.0),
            1 => Complex64::new(-0.0, 0.0),
            _ => Complex64::new(i as f64, -0.5 * i as f64),
        }
    }

    /// Sets every local amplitude of `st` to [`distinct_amp`] of its
    /// global index.
    fn fill_distinct(st: &mut DistributedState) {
        let offset = st.rank_offset();
        for i in 0..st.amps.len() {
            st.amps.set(i, distinct_amp(offset + i as u64));
        }
    }

    fn assert_amps_bits_equal(want: &[Complex64], got: &[Complex64], ctx: &str) {
        assert_eq!(want.len(), got.len(), "{ctx}: length");
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(w.re.to_bits(), g.re.to_bits(), "{ctx}: re at {i}");
            assert_eq!(w.im.to_bits(), g.im.to_bits(), "{ctx}: im at {i}");
        }
    }

    /// A full-exchange `Swap(lo, g)` for every local `lo` and every
    /// global `g` — every pair holds both values of the rank bit — at
    /// caps of 40 B, 48 B, 64 B, a `2^(lo+1)`-amplitude group ± one
    /// amplitude and 1 MiB, in every exchange mode, at R ∈ {2, 4, 8} and
    /// n ∈ {9, 12}: whichever order [`DistributedState::swap_pack_order`]
    /// picks, the state is bit for bit the one of packing everything
    /// first, as the engine once always did, with the same bytes,
    /// messages and tags on every rank.
    #[test]
    fn swap_pack_order_conformance() {
        let modes = [ExchangeMode::Blocking, ExchangeMode::NonBlocking];
        for n in [9u32, 12] {
            for ranks in [2usize, 4, 8] {
                let l = Layout::new(n, ranks as u64).local_qubits();
                for (lo, g) in (0..l).flat_map(|lo| (l..n).map(move |g| (lo, g))) {
                    let group = AMP_BYTES << lo << 1;
                    for cap in [40, 48, 64, group - 16, group + 16, 1 << 20] {
                        for mode in modes {
                            let config = DistConfig {
                                exchange_mode: mode,
                                chunk_policy: ChunkPolicy::new(cap).unwrap(),
                                half_exchange_swaps: false,
                            };
                            let run = |eager_swaps: bool| {
                                Universe::new(ranks).run(|comm| {
                                    let mut st = DistributedState::zero_state(comm, n, config);
                                    st.eager_swaps = eager_swaps;
                                    fill_distinct(&mut st);
                                    st.apply(&Gate::Swap(lo, g)).unwrap();
                                    st.barrier();
                                    let s = st.stats();
                                    let wire = (
                                        s.bytes_exchanged,
                                        s.messages_sent,
                                        format!("{:?}", st.tags),
                                    );
                                    (wire, st.gather().unwrap())
                                })
                            };
                            let (lazy, eager) = (run(false), run(true));
                            let ctx = format!("n={n} R={ranks} Swap({lo}, {g}) cap={cap} {mode:?}");
                            for (rank, (l, e)) in lazy.iter().zip(&eager).enumerate() {
                                assert_eq!(l.0, e.0, "{ctx} rank {rank}: bytes, messages, tags");
                            }
                            let want = eager
                                .into_iter()
                                .find_map(|o| o.1)
                                .expect("rank 0 gathered");
                            let got = lazy.into_iter().find_map(|o| o.1).expect("rank 0 gathered");
                            assert_amps_bits_equal(&want, &got, &ctx);
                        }
                    }
                }
            }
        }
    }

    /// The gather before rank 0 overlapped its own conversion with the
    /// peers' packing and decoded over the pool: the oracle of
    /// [`gather_matches_the_sequential_gather`].
    fn old_gather(st: &mut DistributedState) -> CommResult<Option<Vec<Complex64>>> {
        let local = st.amps.len();
        let mine = if st.rank() == 0 {
            Bytes::new()
        } else {
            let mut payload = Vec::with_capacity(local * AMP_BYTES);
            st.amps.pack_range(0, local, &mut payload);
            Bytes::from(payload)
        };
        let Some(parts) = collective::gather(st.comm, 0, mine)? else {
            return Ok(None);
        };
        let mut full = Vec::with_capacity(local * parts.len());
        full.extend((0..local).map(|i| st.amps.get(i)));
        for (src, part) in parts.iter().enumerate().skip(1) {
            if part.len() != local * AMP_BYTES {
                return Err(CommError::ChunkLength {
                    src,
                    tag: collective::TAG_GATHER,
                    expected: local * AMP_BYTES,
                    got: part.len(),
                });
            }
            full.extend(part.chunks_exact(AMP_BYTES).map(wire_amp));
        }
        Ok(Some(full))
    }

    /// The gather, bit for bit the sequential one at R ∈ {1, 2, 4, 8} on
    /// slices straddling [`PAR_THRESHOLD`]; a peer's payload of the wrong
    /// length is still refused with `ChunkLength`.
    #[test]
    fn gather_matches_the_sequential_gather() {
        for ranks in [1usize, 2, 4, 8] {
            for local in [64, PAR_THRESHOLD / 2, PAR_THRESHOLD, 2 * PAR_THRESHOLD] {
                let n = (local * ranks).trailing_zeros();
                let out = Universe::new(ranks).run(|comm| {
                    let mut st = DistributedState::zero_state(comm, n, DistConfig::default());
                    fill_distinct(&mut st);
                    let new = st.gather().unwrap();
                    (new, old_gather(&mut st).unwrap())
                });
                let ctx = format!("R={ranks} local={local}");
                let (new, old) = out.into_iter().next().expect("rank 0");
                let (new, old) = (new.expect("rank 0 gathered"), old.expect("rank 0 gathered"));
                assert_eq!(new.len(), local * ranks, "{ctx}");
                assert_eq!(new.capacity(), new.len(), "{ctx}: capacity");
                assert_amps_bits_equal(&old, &new, &ctx);
            }
        }
        // Rank 2 sends one amplitude too few; the others their slices.
        let local = PAR_THRESHOLD;
        let errs = Universe::new(4).run(|comm| {
            if comm.rank() == 2 {
                let short = Bytes::from(vec![0u8; (local - 1) * AMP_BYTES]);
                return collective::gather(comm, 0, short).map(|_| ());
            }
            let n = (4 * local).trailing_zeros();
            DistributedState::zero_state(comm, n, DistConfig::default())
                .gather()
                .map(|_| ())
        });
        assert_eq!(
            errs[0],
            Err(CommError::ChunkLength {
                src: 2,
                tag: collective::TAG_GATHER,
                expected: local * AMP_BYTES,
                got: (local - 1) * AMP_BYTES,
            })
        );
        assert!(errs[1..].iter().all(Result::is_ok));
    }

    /// Π(p) on the distributed state, for every permutation of the zoo
    /// at n ∈ {6, 9, 12}, R ∈ {1, 2, 4, 8} and caps {40 B, 64 B, 1 MiB}:
    /// the gathered state holds amplitude `i` at `p.permute_index(i)` bit
    /// for bit, and every rank sends exactly the bytes of the amplitudes
    /// p moves off it — in total and at the busiest rank what
    /// `permutation_traffic` predicts. Every amplitude is distinct, and
    /// both signs of zero are stored, so a misplaced one cannot hide.
    #[test]
    fn global_permutation_conformance() {
        use qse_circuit::transpile::permutation_traffic;
        for n in [6u32, 9, 12] {
            for (shape, perm) in permutation_zoo(n) {
                for ranks in [1usize, 2, 4, 8] {
                    let layout = Layout::new(n, ranks as u64);
                    let l = layout.local_qubits();
                    let moved: Vec<u64> = (0..ranks as u64)
                        .map(|u| {
                            let off = |&sl: &u64| perm.permute_index((u << l) | sl) >> l != u;
                            (0..layout.local_amps()).filter(off).count() as u64 * 16
                        })
                        .collect();
                    let model = permutation_traffic(&perm, &layout);
                    assert_eq!(
                        moved.iter().sum::<u64>(),
                        model.total_bytes,
                        "{shape} {perm:?}"
                    );
                    assert_eq!(moved.iter().max().copied(), Some(model.max_rank_bytes));
                    for cap in [40usize, 64, 1 << 20] {
                        let ctx = format!("{shape} {perm:?} R={ranks} cap={cap}");
                        let config = DistConfig {
                            chunk_policy: ChunkPolicy::new(cap).unwrap(),
                            ..DistConfig::default()
                        };
                        let out = Universe::new(ranks).run(|comm| {
                            let mut st = DistributedState::zero_state(comm, n, config);
                            fill_distinct(&mut st);
                            st.apply_global_permutation(&perm).unwrap();
                            st.barrier();
                            let sent = st.stats().bytes_exchanged;
                            (sent, st.gather().unwrap())
                        });
                        for (rank, (sent, _)) in out.iter().enumerate() {
                            assert_eq!(*sent, moved[rank], "{ctx} rank {rank}");
                        }
                        let after = out.into_iter().find_map(|o| o.1).expect("rank 0 gathered");
                        for i in 0..1u64 << n {
                            let (want, got) =
                                (distinct_amp(i), after[crate::ix(perm.permute_index(i))]);
                            assert_eq!(want.re.to_bits(), got.re.to_bits(), "{ctx} index {i}");
                            assert_eq!(want.im.to_bits(), got.im.to_bits(), "{ctx} index {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn run_plan_with_restored_layout_matches_reference() {
        use qse_circuit::transpile::{comm_avoid, ByteOracle, Strategy};
        let n = 7u32;
        for ranks in [4usize, 8] {
            let layout = Layout::new(n, ranks as u64);
            for seed in 0..3u64 {
                let c = random_circuit(n, 60, GatePool::Full, seed + 200);
                let want = reference(&c, 1);
                for strategy in [Strategy::Greedy, Strategy::beam()] {
                    let plan =
                        comm_avoid(&c, &layout, strategy, &ByteOracle).with_layout_restored();
                    let out = Universe::new(ranks).run(|comm| {
                        let mut st =
                            DistributedState::basis_state(comm, n, 1, DistConfig::default());
                        st.run_plan(&plan).unwrap();
                        st.gather().unwrap()
                    });
                    let got = out.into_iter().flatten().next().unwrap();
                    assert_slices_close(&got, &want, 1e-9);
                }
            }
        }
    }

    #[test]
    fn one_qubit_window_plans_match_reference() {
        // Both passes on one local qubit: a two-qubit gate that holds the
        // slot stays distributed instead of swapping its target in.
        use qse_circuit::transpile::{comm_avoid, ByteOracle, Strategy};
        let (n, ranks) = (4u32, 8usize);
        let layout = Layout::new(n, ranks as u64);
        assert_eq!(layout.local_qubits(), 1);
        for seed in 0..3u64 {
            let c = random_circuit(n, 40, GatePool::Full, seed + 300);
            let want = reference(&c, 1);
            let plans = [
                cache_block(&c, 1).with_layout_restored(),
                comm_avoid(&c, &layout, Strategy::Greedy, &ByteOracle).with_layout_restored(),
                comm_avoid(&c, &layout, Strategy::beam(), &ByteOracle).with_layout_restored(),
            ];
            for plan in &plans {
                let out = Universe::new(ranks).run(|comm| {
                    let mut st = DistributedState::basis_state(comm, n, 1, DistConfig::default());
                    st.run_plan(plan).unwrap();
                    st.gather().unwrap()
                });
                let got = out.into_iter().flatten().next().unwrap();
                assert_slices_close(&got, &want, 1e-9);
            }
        }
    }

    #[test]
    fn transpiled_restore_plan_costs_one_exchange() {
        // The with_layout_restored bugfix: restoring a k-transposition
        // layout is one batched exchange, not k pairwise ones.
        let n = 6u32;
        let ranks = 4usize;
        let mut c = Circuit::new(n);
        c.swap(0, 5).swap(1, 4).h(2); // leaves a 2-transposition layout
        let t = cache_block(&c, Layout::new(n, ranks as u64).local_qubits());
        let plan = t.with_layout_restored();
        assert_eq!(plan.permute_count(), 1);
        let want = reference(&c, 2);
        let out = Universe::new(ranks).run(|comm| {
            let mut st = DistributedState::basis_state(comm, n, 2, DistConfig::default());
            st.run_plan(&plan).unwrap();
            st.barrier();
            (st.stats().bytes_exchanged, st.gather().unwrap())
        });
        let mut exchanged = 0u64;
        let mut state = None;
        for (b, s) in out {
            exchanged += b;
            state = state.or(s);
        }
        assert_slices_close(&state.unwrap(), &want, 1e-9);
        // Batched: each rank ships 3/4 of its slice once (two rank bits
        // mixed) — strictly less than two full pairwise exchanges.
        let slice = Layout::new(n, ranks as u64).local_amps() * 16;
        assert_eq!(exchanged, ranks as u64 * slice / 4 * 3);
    }

    #[test]
    fn cache_blocking_reduces_measured_traffic() {
        // The headline mechanism of the paper, measured on real exchanges:
        // built-in QFT vs cache-blocked QFT on 8 ranks.
        let n = 9;
        let traffic = |c: &Circuit| {
            let stats = Universe::new(8).run(|comm| {
                let mut st = DistributedState::zero_state(comm, n, DistConfig::default());
                st.run(c).unwrap();
                st.barrier();
                st.stats().bytes_sent
            });
            stats.into_iter().sum::<u64>()
        };
        let built_in = traffic(&qft(n));
        let blocked = traffic(&cache_blocked_qft(n, qse_circuit::qft::default_split(n, 6)));
        assert_eq!(blocked * 2, built_in);
    }
}
