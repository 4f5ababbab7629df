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
use crate::single::DEFAULT_MIN_FUSE;
use crate::storage::{init_basis, AmpStorage, SoaStorage};
use qse_circuit::classify::{classify, GateClass, Layout};
use qse_circuit::transpile::Plan;
use qse_circuit::{Circuit, Gate, Permutation};
use qse_comm::chunking::{chunk_tag, exchange, ChunkPolicy, ExchangeMode, StreamedExchange};
use qse_comm::collective;
use qse_comm::message::{bytes_to_f64s, bytes_to_f64s_into, f64s_to_bytes, f64s_to_bytes_into};
use qse_comm::Result as CommResult;
use qse_comm::{CommError, Communicator, TrafficStats};
use qse_math::bits;
use qse_math::Complex64;
use std::time::{Duration, Instant};

/// Exchange and execution options for a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistConfig {
    /// Blocking sendrecv (QuEST default), the paper's non-blocking
    /// rewrite, or the streamed chunk-pipelined exchange that overlaps
    /// each chunk's combine with the remaining communication.
    pub exchange_mode: ExchangeMode,
    /// Per-message size cap; ARCHER2's is 2 GiB, tests use small values
    /// to force multi-chunk exchanges.
    pub chunk_policy: ChunkPolicy,
    /// Use the half exchange for distributed SWAPs (§4 future work).
    pub half_exchange_swaps: bool,
    /// Fuse runs of ≥ this many diagonal gates into one sweep in
    /// [`DistributedState::run`] / [`DistributedState::run_plan`];
    /// `None` disables fusion. Defaults to [`DEFAULT_MIN_FUSE`]: the
    /// real engine executes the same fused schedule the analytic model
    /// prices and the static verifier walks.
    pub min_fuse: Option<usize>,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            exchange_mode: ExchangeMode::Blocking,
            chunk_policy: ChunkPolicy {
                max_message_bytes: 1 << 20,
            },
            half_exchange_swaps: false,
            min_fuse: Some(DEFAULT_MIN_FUSE),
        }
    }
}

/// Per-rank view of a distributed statevector. Lives inside one rank's
/// thread and borrows that rank's [`Communicator`].
pub struct DistributedState<'c, S: AmpStorage = SoaStorage> {
    comm: &'c mut Communicator,
    layout: Layout,
    amps: S,
    config: DistConfig,
    exchange_seq: u64,
    // Scratch buffers for the exchange hot path: every distributed gate
    // reuses these instead of allocating fresh vectors (§2.1's "entire
    // local statevector" amounts to gigabytes per process at scale, so
    // per-gate allocation and copy churn is real money). `recv_f64` is
    // lent to callers via `mem::take` and handed back after the combine.
    send_f64: Vec<f64>,
    send_bytes: Vec<u8>,
    recv_bytes: Vec<u8>,
    recv_f64: Vec<f64>,
    // Ring of chunk-sized decode buffers for the streamed exchange: the
    // peak scratch footprint is ring-depth × chunk size instead of the
    // full half-vector the other modes stage through `recv_f64`.
    recv_ring: Vec<Vec<f64>>,
}

/// User exchange tags must stay below `2^31` (see `qse_comm::chunking`).
const TAG_MOD: u64 = 1 << 30;

impl<'c, S: AmpStorage> DistributedState<'c, S> {
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
        let mut amps = S::zeros(crate::ix(layout.local_amps()));
        let offset = comm.rank() as u64 * layout.local_amps();
        init_basis(&mut amps, offset, index);
        DistributedState {
            comm,
            layout,
            amps,
            config,
            exchange_seq: 0,
            send_f64: Vec::new(),
            send_bytes: Vec::new(),
            recv_bytes: Vec::new(),
            recv_f64: Vec::new(),
            recv_ring: vec![Vec::new(); StreamedExchange::DEFAULT_RING_DEPTH],
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
    pub fn local(&self) -> &S {
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

    /// Advances the per-gate tag sequence. Called exactly once per
    /// *distributed gate* on **every** rank — including spectator ranks
    /// that skip the exchange — so that partners always agree on wire
    /// tags regardless of participation history.
    fn next_tag(&mut self) -> u64 {
        self.exchange_seq += 1;
        self.exchange_seq % TAG_MOD
    }

    /// Full pairwise exchange: ship the entire local vector to `peer`,
    /// receive theirs — "the entire local statevector needs to be
    /// exchanged – 64 GB per process on ARCHER2" (§2.1).
    ///
    /// Allocation-free after warm-up: stages through the per-state
    /// scratch buffers. The returned vector is the `recv_f64` scratch,
    /// taken with `mem::take` — callers hand it back via
    /// [`Self::release_recv`] once the combine is done.
    fn exchange_full(&mut self, peer: usize, tag: u64) -> CommResult<Vec<f64>> {
        self.amps.write_f64_into(&mut self.send_f64);
        self.staged_exchange(peer, tag)
    }

    /// Half exchange for SWAPs: ship only the amplitudes whose `local_q`
    /// bit equals `send_v`; receive the peer's complementary half. Same
    /// scratch-buffer protocol as [`Self::exchange_full`].
    fn exchange_half(
        &mut self,
        peer: usize,
        tag: u64,
        local_q: u32,
        send_v: u64,
    ) -> CommResult<Vec<f64>> {
        self.amps
            .extract_half_bit_into(local_q, send_v, &mut self.send_f64);
        self.staged_exchange(peer, tag)
    }

    /// Ships whatever `exchange_full`/`exchange_half` staged in
    /// `send_f64` and decodes the peer's reply into the `recv_f64`
    /// scratch (lent out; return it with [`Self::release_recv`]).
    fn staged_exchange(&mut self, peer: usize, tag: u64) -> CommResult<Vec<f64>> {
        f64s_to_bytes_into(&self.send_f64, &mut self.send_bytes);
        exchange(
            self.config.exchange_mode,
            self.comm,
            peer,
            tag,
            &self.send_bytes,
            &mut self.recv_bytes,
            self.send_bytes.len(),
            self.config.chunk_policy,
        )?;
        let mut out = std::mem::take(&mut self.recv_f64);
        out.resize(self.recv_bytes.len() / 8, 0.0);
        bytes_to_f64s_into(&self.recv_bytes, &mut out);
        Ok(out)
    }

    /// Returns the receive scratch lent out by an exchange so the next
    /// distributed gate reuses its capacity.
    fn release_recv(&mut self, buf: Vec<f64>) {
        self.recv_f64 = buf;
    }

    /// Streamed chunk-pipelined exchange (the tentpole of
    /// `ExchangeMode::Streamed`): ships whatever the caller staged in
    /// `send_f64` and, as each receive chunk lands, immediately runs
    /// `apply(amps, start_amp, chunk_f64)` on exactly that amplitude
    /// range while later chunks are still in flight.
    ///
    /// `align_amps` is the kernel's orbit size in amplitudes: chunk
    /// boundaries are rounded so every chunk covers whole orbits (an
    /// amplitude is 16 wire bytes). Decoding cycles through the small
    /// `recv_ring`, so peak exchange scratch is ring-depth × chunk size —
    /// never the full half vector. The in-flight gauge on the
    /// communicator tracks exactly that footprint.
    fn streamed_exchange_apply<F>(
        &mut self,
        peer: usize,
        tag: u64,
        align_amps: usize,
        mut apply: F,
    ) -> CommResult<()>
    where
        F: FnMut(&mut S, usize, &[f64]),
    {
        f64s_to_bytes_into(&self.send_f64, &mut self.send_bytes);
        let policy = self.config.chunk_policy.aligned(align_amps * 16);
        let mut ex = StreamedExchange::begin(
            self.comm,
            peer,
            tag,
            &self.send_bytes,
            self.send_bytes.len(),
            policy,
            self.recv_ring.len(),
        )?;
        let mut held = vec![0u64; self.recv_ring.len()];
        let mut turn = 0usize;
        while let Some((_, range, payload)) = ex.next(self.comm, &self.send_bytes)? {
            let slot = turn % self.recv_ring.len();
            turn += 1;
            self.comm.scratch_release(held[slot]);
            held[slot] = payload.len() as u64;
            self.comm.scratch_acquire(held[slot]);
            let buf = &mut self.recv_ring[slot];
            buf.resize(payload.len() / 8, 0.0);
            bytes_to_f64s_into(&payload, buf);
            apply(&mut self.amps, range.start / 16, buf);
        }
        for h in held {
            self.comm.scratch_release(h);
        }
        Ok(())
    }

    /// Applies one gate, communicating as its locality class requires.
    /// Fails only when the underlying exchange fails (peer disconnected,
    /// deadlock diagnosed) — pure-local gates always succeed.
    pub fn apply(&mut self, gate: &Gate) -> CommResult<()> {
        self.apply_classified(gate).map(|_| ())
    }

    /// [`Self::apply`], reporting the locality class it dispatched on.
    fn apply_classified(&mut self, gate: &Gate) -> CommResult<GateClass> {
        assert!(
            gate.max_qubit() < self.layout.n_qubits(),
            "gate out of range"
        );
        let class = classify(gate, &self.layout);
        match class {
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
                let tag = self.next_tag();
                match *gate {
                    Gate::Swap(a, b) => self.distributed_swap(a, b, tag)?,
                    Gate::Unitary2 { a, b, ref matrix } => {
                        self.distributed_unitary2(a, b, matrix, tag)?
                    }
                    ref g => {
                        let Some(m) = g.matrix1() else {
                            unreachable!("classify only routes single-target gates here")
                        };
                        self.distributed_1q(&m, g.target(), g.control(), tag)?
                    }
                }
            }
        }
        Ok(class)
    }

    /// The value of this rank's address bit for global qubit `q`.
    fn rank_bit_value(&self, q: u32) -> u64 {
        (self.rank() as u64 >> self.layout.rank_bit(q)) & 1
    }

    /// Distributed single-target gate: exchange with the pair rank, then
    /// combine rows — `new = M[b][b]·mine + M[b][1−b]·theirs` where `b` is
    /// this rank's bit of the target qubit.
    fn distributed_1q(
        &mut self,
        m: &qse_math::Matrix2,
        target: u32,
        control: Option<u32>,
        tag: u64,
    ) -> CommResult<()> {
        // A *global* control gates participation: ranks with the bit clear
        // are spectators (their pair rank shares the same control bit, so
        // neither side exchanges anything).
        let control_local = match control {
            Some(c) if !self.layout.is_local(c) => {
                if self.rank_bit_value(c) == 0 {
                    return Ok(());
                }
                None
            }
            other => other,
        };
        let pair = crate::ix(self.layout.pair_rank(self.rank() as u64, target));
        let b = crate::ix(self.rank_bit_value(target));
        if self.config.exchange_mode == ExchangeMode::Streamed {
            let (c_mine, c_theirs) = (m.at(b, b), m.at(b, 1 - b));
            self.amps.write_f64_into(&mut self.send_f64);
            self.streamed_exchange_apply(pair, tag, 1, move |amps, start, chunk| {
                amps.apply_distributed_1q_range(c_mine, c_theirs, chunk, start, control_local);
            })?;
            return Ok(());
        }
        let theirs = self.exchange_full(pair, tag)?;
        self.amps
            .combine_rows(m.at(b, b), m.at(b, 1 - b), &theirs, control_local);
        self.release_recv(theirs);
        Ok(())
    }

    /// Distributed general two-qubit unitary.
    ///
    /// One-global case: exchange with the pair rank of the global qubit
    /// and run the 4×4 combine over local pairs. Both-global case: QuEST-
    /// style decomposition — SWAP the lower global qubit with a free
    /// local qubit, apply the one-global form, SWAP back (three
    /// exchanges; the transpiler exists precisely to avoid paying this).
    fn distributed_unitary2(
        &mut self,
        a: u32,
        b: u32,
        m: &qse_math::Matrix4,
        tag: u64,
    ) -> CommResult<()> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if self.layout.is_local(lo) {
            // `lo` local, `hi` global: orbit basis must be |hi lo⟩; if the
            // caller's (a, b) order disagrees, conjugate by SWAP to
            // reorder the matrix instead of the amplitudes.
            let m_ord = if a == lo {
                *m
            } else {
                let s = qse_math::Matrix4::swap();
                s.matmul(&m.matmul(&s))
            };
            let g = self.rank_bit_value(hi);
            let pair = crate::ix(self.layout.pair_rank(self.rank() as u64, hi));
            if self.config.exchange_mode == ExchangeMode::Streamed {
                // Chunks must cover whole |hi lo⟩ orbits of 2^{lo+1}
                // amplitudes so the 4×4 combine never straddles a chunk.
                let orbit = 1usize << (lo + 1);
                self.amps.write_f64_into(&mut self.send_f64);
                self.streamed_exchange_apply(pair, tag, orbit, move |amps, start, chunk| {
                    amps.apply_distributed_2q_range(lo, g, &m_ord, chunk, start);
                })?;
                return Ok(());
            }
            let theirs = self.exchange_full(pair, tag)?;
            self.amps.combine_orbit4(lo, g, &m_ord, &theirs);
            self.release_recv(theirs);
        } else {
            // Both global: bring `lo` into the local window via a free
            // local qubit (qubit 0 is never one of a/b here), using the
            // same wire tag sequencing on every rank.
            let temp = 0u32;
            self.distributed_swap(temp, lo, tag)?;
            let m_ord = if a == lo {
                *m
            } else {
                let s = qse_math::Matrix4::swap();
                s.matmul(&m.matmul(&s))
            };
            let tag2 = self.next_tag();
            self.distributed_unitary2(temp, hi, &m_ord, tag2)?;
            let tag3 = self.next_tag();
            self.distributed_swap(temp, lo, tag3)?;
        }
        Ok(())
    }

    /// Distributed SWAP. One-global case supports the half exchange;
    /// both-global is a pure block permutation between rank pairs.
    fn distributed_swap(&mut self, a: u32, b: u32, tag: u64) -> CommResult<()> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if self.layout.is_local(lo) {
            // One local qubit `lo`, one global qubit `hi`.
            let g = self.rank_bit_value(hi);
            let pair = crate::ix(self.layout.pair_rank(self.rank() as u64, hi));
            if self.config.half_exchange_swaps {
                // Send the half the peer needs (bit_lo == 1−g), receive the
                // half we need (bit_lo == g on their side), and write it
                // into our bit_lo == 1−g slots.
                if self.config.exchange_mode == ExchangeMode::Streamed {
                    // Half-exchange payload indexes *pairs*, so the chunk
                    // start maps through `write_half_bit_range`.
                    self.amps
                        .extract_half_bit_into(lo, 1 - g, &mut self.send_f64);
                    self.streamed_exchange_apply(pair, tag, 1, move |amps, start, chunk| {
                        amps.write_half_bit_range(lo, 1 - g, chunk, start);
                    })?;
                    return Ok(());
                }
                let recv = self.exchange_half(pair, tag, lo, 1 - g)?;
                self.amps.write_half_bit(lo, 1 - g, &recv);
                self.release_recv(recv);
            } else {
                // QuEST-style: exchange everything, use half of it.
                if self.config.exchange_mode == ExchangeMode::Streamed {
                    self.amps.write_f64_into(&mut self.send_f64);
                    self.streamed_exchange_apply(pair, tag, 1, move |amps, start, chunk| {
                        amps.apply_distributed_swap_range(lo, g, chunk, start);
                    })?;
                    return Ok(());
                }
                let theirs = self.exchange_full(pair, tag)?;
                let half = self.amps.len() as u64 / 2;
                for k in 0..half {
                    let l = bits::insert_zero_bit(k, lo) | ((1 - g) << lo);
                    let src = crate::ix(bits::flip_bit(l, lo));
                    self.amps.set(
                        crate::ix(l),
                        Complex64::new(theirs[2 * src], theirs[2 * src + 1]),
                    );
                }
                self.release_recv(theirs);
            }
        } else {
            // Both qubits global: ranks whose two address bits differ
            // trade entire local vectors; equal-bit ranks are untouched.
            let x = self.rank_bit_value(lo);
            let y = self.rank_bit_value(hi);
            if x == y {
                return Ok(());
            }
            let mask =
                (1u64 << self.layout.rank_bit(lo)) | (1u64 << self.layout.rank_bit(hi));
            let pair = crate::ix(self.rank() as u64 ^ mask);
            if self.config.exchange_mode == ExchangeMode::Streamed {
                self.amps.write_f64_into(&mut self.send_f64);
                self.streamed_exchange_apply(pair, tag, 1, |amps, start, chunk| {
                    amps.copy_from_f64_range(chunk, start);
                })?;
                return Ok(());
            }
            let theirs = self.exchange_full(pair, tag)?;
            self.amps.copy_from_f64(&theirs);
            self.release_recv(theirs);
        }
        Ok(())
    }

    /// Runs a circuit, honouring the fusion setting.
    pub fn run(&mut self, circuit: &Circuit) -> CommResult<()> {
        self.run_schedule(
            &Schedule::for_circuit(circuit, self.config.min_fuse),
            |_, _| {},
        )
    }

    /// Walks a lowered [`Schedule`] — the engine's one step loop, behind
    /// [`Self::run`], [`Self::run_plan`] and the thread-cluster executor
    /// (which lowers once and shares the schedule between its ranks).
    /// After each step `observe` receives the locality class it ran as
    /// and its wall-clock: a fused run is fully local, a `Permute` is
    /// distributed.
    pub fn run_schedule(
        &mut self,
        schedule: &Schedule<'_>,
        mut observe: impl FnMut(GateClass, Duration),
    ) -> CommResult<()> {
        assert_eq!(
            schedule.n_qubits(),
            self.layout.n_qubits(),
            "width mismatch"
        );
        let offset = self.rank_offset();
        for step in schedule.steps() {
            let t = Instant::now();
            let class = match step {
                Step::Gate(g) => self.apply_classified(g)?,
                Step::Fused(run) => {
                    self.amps.apply_fused_diagonal(offset, run);
                    GateClass::FullyLocal
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

    /// Applies an index-bit permutation to the whole distributed state as
    /// *one* batched global exchange: afterwards the amplitude that lived
    /// at global index `i` lives at `perm.permute_index(i)`.
    ///
    /// This is the lowering target of the comm-avoiding transpiler's
    /// `Permute` steps. Where the gate engine realises a k-transposition
    /// layout change as k pairwise exchanges (each shipping the full
    /// local slice), this routine moves every amplitude exactly once:
    ///
    /// * a permutation fixing all global positions is a pure in-memory
    ///   reorder — zero bytes on the wire;
    /// * otherwise each rank packs, per destination rank, exactly the
    ///   amplitudes that end up there, eagerly sends all peer blocks
    ///   (chunked under the message-size cap), keeps its stay-put block
    ///   locally, then receives and scatters each source block. A rank's
    ///   payload is `(1 − 2⁻ᵐ)` of its slice for a permutation pulling
    ///   `m` local bits into the rank address — batching k swap-ins costs
    ///   `1 − 2⁻ᵏ` of the slice instead of k full-slice exchanges.
    ///
    /// Wire order is sender-driven and deterministic: block `u → v` lists
    /// amplitudes by ascending *source* index, which the receiver
    /// reconstructs by scanning the sender's index space with the same
    /// permutation. Eager sends keep the all-to-all deadlock-free.
    pub fn apply_global_permutation(&mut self, perm: &Permutation) -> CommResult<()> {
        assert_eq!(
            perm.len(),
            self.layout.n_qubits(),
            "permutation width mismatch"
        );
        if perm.is_identity() {
            return Ok(());
        }
        let l = self.layout.local_qubits();
        let n = self.layout.n_qubits();
        if (l..n).all(|p| perm.apply(p) == p) {
            // Purely local: `as_transpositions` factors p = T1∘…∘Tk with
            // the state map of "apply Tk first, T1 last" equal to Π(p).
            for &(a, b) in perm.as_transpositions().iter().rev() {
                self.amps.swap_local(a, b);
            }
            return Ok(());
        }

        let tag = self.next_tag();
        let ranks = crate::ix(self.layout.n_ranks());
        let local_amps = self.layout.local_amps();
        let mask = local_amps - 1;
        let me = self.rank() as u64;

        // Pack per-destination blocks in ascending source order; stay-put
        // amplitudes scatter straight into the staging vector.
        let mut staging = std::mem::take(&mut self.recv_f64);
        staging.resize(2 * crate::ix(local_amps), 0.0);
        let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); ranks];
        for sl in 0..local_amps {
            let d = perm.permute_index((me << l) | sl);
            let amp = self.amps.get(crate::ix(sl));
            let v = crate::ix(d >> l);
            if v as u64 == me {
                let dl = crate::ix(d & mask);
                staging[2 * dl] = amp.re;
                staging[2 * dl + 1] = amp.im;
            } else {
                blocks[v].push(amp.re);
                blocks[v].push(amp.im);
            }
        }

        // Eager sends to every peer first (ascending, chunked): the
        // mailbox transport buffers them, so no receive can deadlock.
        let mut sent_bytes = 0u64;
        for v in 0..ranks {
            if v as u64 == me || blocks[v].is_empty() {
                continue;
            }
            f64s_to_bytes_into(&blocks[v], &mut self.send_bytes);
            sent_bytes += self.send_bytes.len() as u64;
            for (idx, range) in self
                .config
                .chunk_policy
                .ranges(self.send_bytes.len())
                .enumerate()
            {
                self.comm.send(v, chunk_tag(tag, idx), &self.send_bytes[range])?;
            }
        }
        if sent_bytes > 0 {
            self.comm.record_exchange_bytes(sent_bytes);
        }

        // Receive each source block and scatter it. The sender listed its
        // amplitudes by ascending source index, so replaying the sender's
        // scan yields each payload's destination sequence.
        for w in 0..ranks as u64 {
            if w == me {
                continue;
            }
            let mut dests: Vec<usize> = Vec::new();
            for sl in 0..local_amps {
                let d = perm.permute_index((w << l) | sl);
                if d >> l == me {
                    dests.push(crate::ix(d & mask));
                }
            }
            if dests.is_empty() {
                continue;
            }
            let total = dests.len() * 16;
            let mut filled = 0usize;
            for (idx, range) in self.config.chunk_policy.ranges(total).enumerate() {
                let payload = self.comm.recv(crate::ix(w), chunk_tag(tag, idx))?;
                debug_assert_eq!(payload.len(), range.len(), "chunk length");
                let buf = &mut self.recv_ring[0];
                buf.resize(payload.len() / 8, 0.0);
                bytes_to_f64s_into(&payload, buf);
                for (k, pair) in buf.chunks_exact(2).enumerate() {
                    let dl = dests[filled + k];
                    staging[2 * dl] = pair[0];
                    staging[2 * dl + 1] = pair[1];
                }
                filled += payload.len() / 16;
            }
            debug_assert_eq!(filled, dests.len(), "whole block consumed");
        }

        self.amps.copy_from_f64(&staging);
        self.release_recv(staging);
        Ok(())
    }

    /// Runs a comm-avoiding [`Plan`]: the gate segments between `Permute`
    /// steps fuse like circuits, and `Permute` steps lower to
    /// [`Self::apply_global_permutation`].
    pub fn run_plan(&mut self, plan: &Plan) -> CommResult<()> {
        self.run_schedule(&Schedule::for_plan(plan, self.config.min_fuse), |_, _| {})
    }

    /// Global Σ|amp|² via all-reduce.
    pub fn norm_sqr(&mut self) -> CommResult<f64> {
        let local = self.amps.norm_sqr_sum();
        Ok(collective::allreduce_sum_f64(self.comm, &[local])?[0])
    }

    /// Global probability that measuring `qubit` yields 1.
    pub fn prob_one(&mut self, qubit: u32) -> CommResult<f64> {
        let local = if self.layout.is_local(qubit) {
            let mask = 1u64 << qubit;
            let mut p = 0.0;
            for i in 0..self.amps.len() as u64 {
                if i & mask != 0 {
                    p += self.amps.get(crate::ix(i)).norm_sqr();
                }
            }
            p
        } else if self.rank_bit_value(qubit) == 1 {
            self.amps.norm_sqr_sum()
        } else {
            0.0
        };
        Ok(collective::allreduce_sum_f64(self.comm, &[local])?[0])
    }

    /// Expectation value ⟨ψ|P|ψ⟩ of a Pauli string on the distributed
    /// state — collective: applies the Paulis (communicating for global
    /// X/Y), all-reduces `⟨ψ, Pψ⟩`, and restores the original amplitudes.
    pub fn pauli_expectation(
        &mut self,
        string: &[(u32, crate::expectation::Pauli)],
    ) -> CommResult<f64> {
        use crate::expectation::Pauli;
        {
            let mut seen = std::collections::HashSet::new();
            for (q, _) in string {
                assert!(*q < self.layout.n_qubits(), "qubit {q} out of range");
                assert!(seen.insert(*q), "duplicate qubit {q} in Pauli string");
            }
        }
        let saved = self.amps.clone();
        for &(q, p) in string {
            let gate = match p {
                Pauli::X => Gate::X(q),
                Pauli::Y => Gate::Y(q),
                Pauli::Z => Gate::Z(q),
            };
            self.apply(&gate)?;
        }
        let mut local = [0.0f64; 2];
        for i in 0..saved.len() {
            let v = saved.get(i).conj() * self.amps.get(i);
            local[0] += v.re;
            local[1] += v.im;
        }
        let total = collective::allreduce_sum_f64(self.comm, &local)?;
        self.amps = saved;
        debug_assert!(total[1].abs() < 1e-9, "non-real expectation");
        Ok(total[0])
    }

    /// Projects `qubit` onto `bit` and renormalises — the distributed
    /// collapse. Every rank must call this collectively (it all-reduces
    /// the outcome probability).
    ///
    /// Returns [`CommError::ImpossibleOutcome`] on every rank when the
    /// requested outcome has (numerically) zero probability; the state
    /// is untouched. The all-reduce guarantees every rank computes the
    /// same `p`, so all ranks agree on the error and the collective
    /// stays in lockstep.
    pub fn collapse(&mut self, qubit: u32, bit: u8) -> CommResult<()> {
        let p1 = self.prob_one(qubit)?;
        let p = if bit == 1 { p1 } else { 1.0 - p1 };
        if p <= 1e-15 {
            return Err(CommError::ImpossibleOutcome { qubit, bit });
        }
        let scale = 1.0 / p.sqrt();
        if self.layout.is_local(qubit) {
            let mask = 1u64 << qubit;
            for i in 0..self.amps.len() as u64 {
                let v = if u8::from(i & mask != 0) == bit {
                    self.amps.get(crate::ix(i)).scale(scale)
                } else {
                    Complex64::ZERO
                };
                self.amps.set(crate::ix(i), v);
            }
        } else if self.rank_bit_value(qubit) as u8 == bit {
            // Whole local slice survives, rescaled.
            for i in 0..self.amps.len() {
                let v = self.amps.get(i).scale(scale);
                self.amps.set(i, v);
            }
        } else {
            self.amps.fill_zero();
        }
        Ok(())
    }

    /// Measures `qubit` collectively: rank 0 draws the outcome from the
    /// global distribution (using the uniform sample `u ∈ [0,1)` it
    /// broadcasts), all ranks collapse identically, and the observed bit
    /// is returned on every rank.
    pub fn measure_qubit(&mut self, qubit: u32, u: f64) -> CommResult<u8> {
        // Broadcast rank 0's u so all ranks agree even if callers passed
        // rank-local randomness.
        let u_bytes = u.to_le_bytes();
        let agreed = collective::broadcast(self.comm, 0, &u_bytes)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&agreed[..8]);
        let u = f64::from_le_bytes(b);
        let p1 = self.prob_one(qubit)?;
        let bit = u8::from(u < p1);
        self.collapse(qubit, bit)?;
        Ok(bit)
    }

    /// Gathers the full statevector on rank 0 (`None` elsewhere).
    /// Test-scale only: allocates the entire `2^n` vector.
    pub fn gather(&mut self) -> CommResult<Option<Vec<Complex64>>> {
        let local = f64s_to_bytes(&self.amps.to_f64_vec());
        let Some(parts) = collective::gather(self.comm, 0, &local)? else {
            return Ok(None);
        };
        let mut full = Vec::with_capacity(crate::ix(self.layout.local_amps()) * parts.len());
        for part in parts {
            let values = bytes_to_f64s(&part);
            for pair in values.chunks_exact(2) {
                full.push(Complex64::new(pair[0], pair[1]));
            }
        }
        Ok(Some(full))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceState;
    use crate::storage::AosStorage;
    use qse_circuit::qft::{cache_blocked_qft, qft};
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_circuit::transpile::cache_blocking::cache_block;
    use qse_circuit::Permutation;
    use qse_comm::Universe;
    use qse_math::approx::{assert_close, assert_slices_close};

    /// Runs `circuit` distributed over `ranks` ranks and returns the full
    /// state gathered on rank 0.
    fn simulate_dist(
        circuit: &Circuit,
        ranks: usize,
        config: DistConfig,
        basis: u64,
    ) -> Vec<Complex64> {
        let out = Universe::new(ranks).run(|comm| {
            let mut st: DistributedState<SoaStorage> =
                DistributedState::basis_state(comm, circuit.n_qubits(), basis, config);
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
    fn nonblocking_identical_to_blocking() {
        let c = random_circuit(7, 50, GatePool::Full, 9);
        let blocking = simulate_dist(&c, 4, DistConfig::default(), 0);
        let nonblocking = simulate_dist(
            &c,
            4,
            DistConfig {
                exchange_mode: ExchangeMode::NonBlocking,
                ..DistConfig::default()
            },
            0,
        );
        assert_slices_close(&blocking, &nonblocking, 0.0);
    }

    #[test]
    fn streamed_identical_to_blocking() {
        // Tiny chunks force many in-flight pieces per exchange; the
        // streamed pipeline must still be bit-for-bit deterministic.
        let c = random_circuit(7, 50, GatePool::Full, 9);
        let blocking = simulate_dist(&c, 4, DistConfig::default(), 0);
        let streamed = simulate_dist(
            &c,
            4,
            DistConfig {
                exchange_mode: ExchangeMode::Streamed,
                chunk_policy: ChunkPolicy::new(128).unwrap(),
                ..DistConfig::default()
            },
            0,
        );
        assert_slices_close(&blocking, &streamed, 0.0);
    }

    #[test]
    fn streamed_half_exchange_matches_full() {
        let mut c = Circuit::new(7);
        c.h(0).swap(0, 6).h(1).swap(5, 6).swap(2, 5).h(6).swap(1, 4);
        let full = simulate_dist(&c, 8, DistConfig::default(), 3);
        let streamed_half = simulate_dist(
            &c,
            8,
            DistConfig {
                exchange_mode: ExchangeMode::Streamed,
                half_exchange_swaps: true,
                chunk_policy: ChunkPolicy::new(64).unwrap(),
                ..DistConfig::default()
            },
            3,
        );
        assert_slices_close(&full, &streamed_half, 0.0);
    }

    #[test]
    fn small_chunks_identical_to_large() {
        let c = random_circuit(6, 40, GatePool::Full, 4);
        let large = simulate_dist(&c, 4, DistConfig::default(), 0);
        let small = simulate_dist(
            &c,
            4,
            DistConfig {
                chunk_policy: ChunkPolicy::new(64).unwrap(),
                exchange_mode: ExchangeMode::NonBlocking,
                ..DistConfig::default()
            },
            0,
        );
        assert_slices_close(&large, &small, 0.0);
    }

    #[test]
    fn half_exchange_swaps_identical_to_full() {
        let mut c = Circuit::new(7);
        // exercise both one-global and both-global distributed swaps
        c.h(0).swap(0, 6).h(1).swap(5, 6).swap(2, 5).h(6).swap(1, 4);
        let full = simulate_dist(&c, 8, DistConfig::default(), 3);
        let half = simulate_dist(
            &c,
            8,
            DistConfig {
                half_exchange_swaps: true,
                ..DistConfig::default()
            },
            3,
        );
        assert_slices_close(&full, &half, 0.0);
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
                let mut st: DistributedState<SoaStorage> =
                    DistributedState::zero_state(comm, 6, config);
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
    fn fusion_matches_unfused_distributed() {
        // The default config fuses; against an explicitly unfused run the
        // contract is bit-for-bit equality, not closeness.
        let c = random_circuit(7, 80, GatePool::Full, 21);
        let plain = simulate_dist(
            &c,
            4,
            DistConfig {
                min_fuse: None,
                ..DistConfig::default()
            },
            0,
        );
        let fused = simulate_dist(&c, 4, DistConfig::default(), 0);
        assert_eq!(plain.len(), fused.len());
        for (i, (p, f)) in plain.iter().zip(&fused).enumerate() {
            assert_eq!(p.re.to_bits(), f.re.to_bits(), "re at {i}");
            assert_eq!(p.im.to_bits(), f.im.to_bits(), "im at {i}");
        }
    }

    #[test]
    fn aos_storage_matches_soa_distributed() {
        let c = random_circuit(6, 50, GatePool::Full, 33);
        let soa = simulate_dist(&c, 4, DistConfig::default(), 0);
        let aos_out = Universe::new(4).run(|comm| {
            let mut st: DistributedState<AosStorage> =
                DistributedState::zero_state(comm, 6, DistConfig::default());
            st.run(&c).unwrap();
            st.gather().unwrap()
        });
        let aos = aos_out.into_iter().flatten().next().unwrap();
        assert_slices_close(&soa, &aos, 1e-12);
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
    fn norm_and_prob_are_global() {
        Universe::new(4).run(|comm| {
            let mut st: DistributedState<SoaStorage> =
                DistributedState::zero_state(comm, 6, DistConfig::default());
            st.apply(&Gate::H(5)).unwrap(); // distributed H on the top qubit
            assert_close(st.norm_sqr().unwrap(), 1.0, 1e-12);
            assert_close(st.prob_one(5).unwrap(), 0.5, 1e-12);
            assert_close(st.prob_one(0).unwrap(), 0.0, 1e-12);
            st.apply(&Gate::H(2)).unwrap(); // local H
            assert_close(st.prob_one(2).unwrap(), 0.5, 1e-12);
        });
    }

    #[test]
    fn distributed_gate_moves_expected_bytes() {
        // One distributed H on 4 ranks of a 6-qubit register: each rank
        // exchanges its full 16-amplitude slice (256 bytes) once.
        let stats = Universe::new(4).run(|comm| {
            let mut st: DistributedState<SoaStorage> =
                DistributedState::zero_state(comm, 6, DistConfig::default());
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
            let mut st: DistributedState<SoaStorage> =
                DistributedState::zero_state(comm, 6, DistConfig::default());
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
            let mut st: DistributedState<SoaStorage> =
                DistributedState::basis_state(comm, 6, 0b100000, DistConfig::default());
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
    fn distributed_pauli_expectation_matches_single_process() {
        use crate::expectation::{pauli_expectation, Pauli};
        use crate::single::SingleState;
        let c = random_circuit(6, 50, GatePool::Full, 71);
        let mut single: SingleState<SoaStorage> = SingleState::zero_state(6);
        single.run(&c);
        let strings: Vec<Vec<(u32, Pauli)>> = vec![
            vec![(0, Pauli::Z)],
            vec![(5, Pauli::X)], // global qubit: communicates
            vec![(2, Pauli::Y), (5, Pauli::Z)],
            vec![(0, Pauli::X), (3, Pauli::Y), (5, Pauli::X)],
        ];
        let got = Universe::new(4).run(|comm| {
            let mut st: DistributedState<SoaStorage> =
                DistributedState::zero_state(comm, 6, DistConfig::default());
            st.run(&c).unwrap();
            let values: Vec<f64> = strings
                .iter()
                .map(|s| st.pauli_expectation(s).unwrap())
                .collect();
            // The state is restored afterwards: norm still 1 and a
            // second evaluation agrees.
            assert_close(st.norm_sqr().unwrap(), 1.0, 1e-9);
            assert_close(st.pauli_expectation(&strings[0]).unwrap(), values[0], 1e-12);
            values
        });
        for rank_values in got {
            for (value, string) in rank_values.iter().zip(&strings) {
                assert_close(*value, pauli_expectation(&single, string), 1e-9);
            }
        }
    }

    #[test]
    fn distributed_collapse_matches_single_process() {
        // Build a GHZ-like state, measure the top (global) qubit as 1,
        // compare against the single-process collapse.
        let mut c = Circuit::new(6);
        c.h(0);
        for q in 1..6 {
            c.cnot(0, q);
        }
        let collapsed = Universe::new(4).run(|comm| {
            let mut st: DistributedState<SoaStorage> =
                DistributedState::zero_state(comm, 6, DistConfig::default());
            st.run(&c).unwrap();
            st.collapse(5, 1).unwrap(); // global qubit
            assert_close(st.norm_sqr().unwrap(), 1.0, 1e-12);
            st.collapse(0, 1).unwrap(); // local qubit: already determined, p = 1
            st.gather().unwrap()
        });
        let got = collapsed.into_iter().flatten().next().unwrap();
        // GHZ collapsed onto |111111⟩.
        assert_close(got[0b111111].abs(), 1.0, 1e-9);
    }

    #[test]
    fn distributed_measure_agrees_across_ranks() {
        let mut c = Circuit::new(6);
        c.h(5);
        for u in [0.1f64, 0.9] {
            let bits = Universe::new(4).run(|comm| {
                let mut st: DistributedState<SoaStorage> =
                    DistributedState::zero_state(comm, 6, DistConfig::default());
                st.run(&c).unwrap();
                let bit = st.measure_qubit(5, u).unwrap();
                assert_close(st.norm_sqr().unwrap(), 1.0, 1e-12);
                assert_close(st.prob_one(5).unwrap(), bit as f64, 1e-12);
                bit
            });
            // every rank observed the same bit, decided by u vs 0.5
            assert!(bits.windows(2).all(|w| w[0] == w[1]));
            assert_eq!(bits[0], u8::from(u < 0.5));
        }
    }

    #[test]
    fn measure_matches_single_process_on_same_draw() {
        // Same circuit, same uniform draw: the distributed measurement
        // must observe the same bit and leave the same post-measurement
        // state as the single-address-space `measure_qubit_with`.
        use crate::measure::measure_qubit_with;
        use crate::single::SingleState;
        let c = random_circuit(6, 40, GatePool::Full, 21);
        for u in [0.05f64, 0.35, 0.65, 0.95] {
            let mut single: SingleState = SingleState::zero_state(6);
            single.run(&c);
            let out = measure_qubit_with(&mut single, 3, u).unwrap();
            let gathered = Universe::new(4).run(|comm| {
                let mut st: DistributedState<SoaStorage> =
                    DistributedState::zero_state(comm, 6, DistConfig::default());
                st.run(&c).unwrap();
                let bit = st.measure_qubit(3, u).unwrap();
                assert_eq!(bit, out.bit, "bit mismatch at u = {u}");
                st.gather().unwrap()
            });
            let got = gathered.into_iter().flatten().next().unwrap();
            assert_slices_close(&got, &single.to_vec(), 1e-9);
        }
    }

    #[test]
    fn impossible_distributed_collapse_is_a_typed_error() {
        // |0000⟩ has zero probability of observing bit 1; every rank
        // must agree on the error instead of asserting.
        let errs = Universe::new(2).run(|comm| {
            let mut st: DistributedState<SoaStorage> =
                DistributedState::zero_state(comm, 4, DistConfig::default());
            st.collapse(3, 1).unwrap_err()
        });
        for e in errs {
            assert_eq!(e, CommError::ImpossibleOutcome { qubit: 3, bit: 1 });
        }
    }

    #[test]
    fn global_permutation_matches_index_map() {
        // Π(p) on the distributed state: gathered[p.permute_index(i)]
        // equals the pre-permutation amplitude at i — for local-only,
        // single swap-in, batched and rank-rotating permutations, across
        // rank counts and chunk sizes.
        let n = 6u32;
        let prep = random_circuit(n, 40, GatePool::Full, 12);
        let maps: Vec<Vec<u32>> = vec![
            vec![1, 0, 3, 2, 4, 5],  // purely local
            vec![5, 1, 2, 3, 4, 0],  // one local<->global transposition
            vec![4, 5, 2, 3, 0, 1],  // batched double swap-in
            vec![0, 1, 2, 3, 5, 4],  // global<->global
            vec![5, 4, 3, 2, 1, 0],  // full reversal
            vec![1, 2, 3, 4, 5, 0],  // full-register cycle
        ];
        for ranks in [1usize, 2, 4, 8] {
            for map in &maps {
                let perm = Permutation::from_map(map.clone());
                for max_bytes in [1usize << 20, 64] {
                    let config = DistConfig {
                        chunk_policy: ChunkPolicy::new(max_bytes).unwrap(),
                        ..DistConfig::default()
                    };
                    let out = Universe::new(ranks).run(|comm| {
                        let mut st: DistributedState<SoaStorage> =
                            DistributedState::basis_state(comm, n, 0, config);
                        st.run(&prep).unwrap();
                        let before = st.gather().unwrap();
                        st.apply_global_permutation(&perm).unwrap();
                        (before, st.gather().unwrap())
                    });
                    let (before, after) = out.into_iter().next().unwrap();
                    let (Some(before), Some(after)) = (before, after) else {
                        continue; // only rank 0 gathers
                    };
                    for (i, &amp) in before.iter().enumerate() {
                        let j = perm.permute_index(i as u64) as usize;
                        assert_eq!(
                            amp.re.to_bits(),
                            after[j].re.to_bits(),
                            "R={ranks} map={map:?} index {i}"
                        );
                        assert_eq!(amp.im.to_bits(), after[j].im.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn global_permutation_traffic_matches_model() {
        // Measured bytes_exchanged equals the transpiler's static
        // `permutation_traffic` prediction, per rank and in total.
        use qse_circuit::transpile::permutation_traffic;
        let n = 6u32;
        let ranks = 8usize;
        let layout = Layout::new(n, ranks as u64);
        let maps: Vec<Vec<u32>> = vec![
            vec![1, 0, 2, 3, 4, 5],  // local: zero traffic
            vec![5, 1, 2, 3, 4, 0],  // single swap-in: half slices
            vec![4, 5, 2, 3, 0, 1],  // double swap-in: 3/4 slices
            vec![0, 1, 2, 3, 5, 4],  // global<->global: differing-bit ranks
        ];
        for map in maps {
            let perm = Permutation::from_map(map);
            let want = permutation_traffic(&perm, &layout);
            let stats = Universe::new(ranks).run(|comm| {
                let mut st: DistributedState<SoaStorage> =
                    DistributedState::zero_state(comm, n, DistConfig::default());
                st.run(&random_circuit(n, 10, GatePool::Full, 3)).unwrap();
                st.barrier();
                st.comm.reset_stats();
                st.apply_global_permutation(&perm).unwrap();
                st.barrier();
                st.stats().bytes_exchanged
            });
            assert_eq!(stats.iter().sum::<u64>(), want.total_bytes, "{perm:?}");
            assert_eq!(
                stats.iter().copied().max().unwrap(),
                want.max_rank_bytes,
                "{perm:?}"
            );
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
                    let plan = comm_avoid(&c, &layout, strategy, &ByteOracle)
                        .with_layout_restored();
                    let out = Universe::new(ranks).run(|comm| {
                        let mut st: DistributedState<SoaStorage> =
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
            let mut st: DistributedState<SoaStorage> =
                DistributedState::basis_state(comm, n, 2, DistConfig::default());
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
                let mut st: DistributedState<SoaStorage> =
                    DistributedState::zero_state(comm, n, DistConfig::default());
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
