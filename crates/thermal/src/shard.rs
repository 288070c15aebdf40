//! The deterministic thread partition of a lane batch.
//!
//! After the shared `(C + h·G)` factorization, packed lanes are
//! completely independent: the blocked substitution carries one
//! accumulator per lane and never mixes columns. A batch can therefore
//! be stepped in contiguous lane ranges on as many threads as the
//! machine offers with **bit-identical** results for any thread or
//! shard count. [`ShardPlan`] picks that partition; the caller owns
//! the workers and the storage of each range (a fleet's lane store
//! steps each range's tiles on one worker, fusing the server dynamics
//! and telemetry with the solve through
//! [`SharedKernel::step_racks`](crate::SharedKernel::step_racks)).
//!
//! Thread count comes from [`ShardPlan::from_env`] (`LEAKCTL_THREADS`,
//! else the machine's available parallelism), and small batches stay
//! single-shard — and therefore inline, with zero spawn overhead — via
//! a minimum shard width.

use std::ops::Range;
use std::thread;

/// Environment variable overriding the worker thread count used by
/// [`ShardPlan::from_env`]. `LEAKCTL_THREADS=1` forces fully inline
/// (spawn-free) stepping; results are bit-identical either way.
pub const THREADS_ENV: &str = "LEAKCTL_THREADS";

/// Hard ceiling on worker threads (a plan never exceeds it).
const MAX_THREADS: usize = 64;

/// Default minimum lanes per shard: batches smaller than
/// `2 × DEFAULT_MIN_LANES_PER_SHARD` stay single-shard, so small fleets
/// (and every unit test) never pay thread-spawn overhead.
const DEFAULT_MIN_LANES_PER_SHARD: usize = 16;

/// Deterministic work partition: how many worker threads to use and
/// how finely to shard a batch across them.
///
/// The partition for a given lane count is a pure function of the plan
/// — contiguous ranges, sizes differing by at most one — and the
/// stepped results are bit-identical for *any* plan, so the plan is
/// purely a performance knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    threads: usize,
    min_lanes_per_shard: usize,
}

impl ShardPlan {
    /// A plan over `threads` workers (clamped to `1..=64`) with the
    /// default minimum shard width.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.clamp(1, MAX_THREADS),
            min_lanes_per_shard: DEFAULT_MIN_LANES_PER_SHARD,
        }
    }

    /// The plan the environment asks for: `LEAKCTL_THREADS` when set,
    /// else the machine's available parallelism. An unparsable value
    /// (a typo in a deployment manifest) also falls back to the
    /// machine's parallelism — a misconfiguration must not silently
    /// force the engine single-threaded.
    #[must_use]
    pub fn from_env() -> Self {
        let machine = || thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let threads = match std::env::var(THREADS_ENV) {
            Ok(v) => v.trim().parse::<usize>().unwrap_or_else(|_| machine()),
            Err(_) => machine(),
        };
        Self::new(threads)
    }

    /// Overrides the minimum lanes per shard (floored at 1) — mainly
    /// for tests that want many tiny shards, and for huge-node
    /// topologies where even narrow shards carry enough work.
    #[must_use]
    pub fn with_min_lanes_per_shard(mut self, min: usize) -> Self {
        self.min_lanes_per_shard = min.max(1);
        self
    }

    /// The worker thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of shards a batch of `lanes` splits into: at most
    /// `threads`, and wide enough that no shard is narrower than the
    /// minimum width (a batch below twice the minimum stays whole).
    #[must_use]
    pub fn shard_count(&self, lanes: usize) -> usize {
        if lanes == 0 {
            return 0;
        }
        self.threads.min((lanes / self.min_lanes_per_shard).max(1))
    }

    /// The deterministic contiguous lane ranges of each shard: sizes
    /// differ by at most one, earlier shards take the remainder.
    #[must_use]
    pub fn ranges(&self, lanes: usize) -> Vec<Range<usize>> {
        let shards = self.shard_count(lanes);
        let mut out = Vec::with_capacity(shards);
        if shards == 0 {
            return out;
        }
        let (base, rem) = (lanes / shards, lanes % shards);
        let mut start = 0;
        for i in 0..shards {
            let size = base + usize::from(i < rem);
            out.push(start..start + size);
            start += size;
        }
        out
    }
}

impl Default for ShardPlan {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Partitions items by structure hash in first-seen order: returns the
/// member lists of input *positions*, one list per distinct hash — the
/// grouping policy of the core fleet engine.
#[must_use]
pub fn group_by_structure_hash(hashes: impl Iterator<Item = u64>) -> Vec<Vec<usize>> {
    let mut seen: Vec<u64> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (position, hash) in hashes.enumerate() {
        match seen.iter().position(|&h| h == hash) {
            Some(g) => groups[g].push(position),
            None => {
                seen.push(hash);
                groups.push(vec![position]);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseBackend;
    use crate::batch::tests::{kernel_of, one_rack, power_block, Scalar};
    use crate::batch::{BatchSolver, PackedLanes};
    use crate::network::{Coupling, ThermalNetwork, ThermalNetworkBuilder, ThermalState};
    use leakctl_units::{
        AirFlow, Celsius, SimDuration, ThermalCapacitance, ThermalConductance, Watts,
    };

    fn build_server_like(
        sockets: usize,
    ) -> (ThermalNetwork, Vec<crate::NodeId>, crate::FlowChannelId) {
        let mut b = ThermalNetworkBuilder::new();
        let amb = b.add_boundary("ambient", Celsius::new(24.0));
        let ch = b.add_flow_channel("chassis");
        let model = crate::ConvectionModel::turbulent(
            ThermalConductance::new(3.4),
            AirFlow::from_cfm(300.0),
        );
        let mut dies = Vec::new();
        for s in 0..sockets {
            let die = b.add_node(&format!("die{s}"), ThermalCapacitance::new(80.0));
            let sink = b.add_node(&format!("sink{s}"), ThermalCapacitance::new(400.0));
            b.connect(
                die,
                sink,
                Coupling::Conductance(ThermalConductance::new(10.0)),
            )
            .unwrap();
            b.connect(sink, amb, Coupling::Convective { channel: ch, model })
                .unwrap();
            dies.push(die);
        }
        let mut net = b.build().unwrap();
        net.set_flow(ch, AirFlow::from_cfm(250.0)).unwrap();
        (net, dies, ch)
    }

    fn fleet(count: usize, sockets: usize) -> Vec<ThermalNetwork> {
        (0..count)
            .map(|lane| {
                let (mut net, dies, _) = build_server_like(sockets);
                for (s, &die) in dies.iter().enumerate() {
                    net.set_power(die, Watts::new(40.0 + 3.0 * lane as f64 + s as f64))
                        .unwrap();
                }
                net
            })
            .collect()
    }

    #[test]
    fn plan_partition_is_deterministic_and_covers() {
        let plan = ShardPlan::new(4).with_min_lanes_per_shard(1);
        let ranges = plan.ranges(10);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..3);
        assert_eq!(ranges[1], 3..6);
        assert_eq!(ranges[2], 6..8);
        assert_eq!(ranges[3], 8..10);
        assert_eq!(plan.ranges(10), ranges, "pure function of the plan");
        // Default width keeps small batches whole.
        assert_eq!(ShardPlan::new(8).shard_count(20), 1);
        assert_eq!(ShardPlan::new(8).shard_count(64), 4);
        assert_eq!(ShardPlan::new(2).shard_count(64), 2);
        assert_eq!(ShardPlan::new(0).threads(), 1, "clamped");
    }

    /// One packed block per range of `plan`, with its lane range.
    type Blocks = Vec<(Range<usize>, PackedLanes)>;

    fn pack_blocks(states: &[ThermalState], plan: &ShardPlan) -> Blocks {
        plan.ranges(states.len())
            .into_iter()
            .map(|range| {
                let block = PackedLanes::pack(&states[range.clone()]);
                (range, block)
            })
            .collect()
    }

    /// Steps every block once through one prepared kernel, each block
    /// on its own scoped worker.
    fn step_sharded(
        solver: &mut BatchSolver<DenseBackend>,
        nets: &[ThermalNetwork],
        blocks: &mut Blocks,
    ) {
        let mut bound = Vec::new();
        let kernel = kernel_of(solver, &nets[0], SimDuration::from_secs(1), &mut bound);
        thread::scope(|scope| {
            for (range, block) in blocks.iter_mut() {
                let spans = one_rack(range.len());
                let (kernel, powers) = (&kernel, power_block(&nets[range.clone()]));
                scope.spawn(move || kernel.step_racks(block, &powers, &spans).unwrap());
            }
        });
    }

    /// Every lane's temperatures, unpacked from its range's block.
    fn unpack_all(nets: &[ThermalNetwork], blocks: &Blocks) -> Vec<ThermalState> {
        let mut out = Vec::with_capacity(nets.len());
        for (range, block) in blocks {
            for (offset, lane) in range.clone().enumerate() {
                let mut state = nets[lane].uniform_state(Celsius::new(0.0));
                block.unpack_lane_into(offset, &mut state);
                out.push(state);
            }
        }
        out
    }

    /// The hottest packed temperature across all blocks.
    fn max_temperature(blocks: &Blocks) -> f64 {
        blocks
            .iter()
            .map(|(_, block)| block.max_temperature())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn sharded_step_bit_identical_to_packed_for_any_plan() {
        let nets = fleet(13, 2);
        let states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let dt = SimDuration::from_secs(1);

        let mut reference = Scalar::new(&nets, Celsius::new(24.0));
        for _ in 0..100 {
            reference.step(&nets, dt);
        }
        let want = &reference.states;

        for threads in [1usize, 2, 8] {
            for min_width in [1usize, 3, 16] {
                let plan = ShardPlan::new(threads).with_min_lanes_per_shard(min_width);
                let mut solver = BatchSolver::<DenseBackend>::with_backend(&nets[0]);
                let mut blocks = pack_blocks(&states, &plan);
                assert_eq!(blocks.len(), plan.shard_count(nets.len()));
                for _ in 0..100 {
                    step_sharded(&mut solver, &nets, &mut blocks);
                }
                let hottest = want
                    .iter()
                    .map(|s| s.max_temperature().degrees())
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(max_temperature(&blocks), hottest);
                for (lane, (a, b)) in unpack_all(&nets, &blocks).iter().zip(want).enumerate() {
                    for (i, (x, y)) in a.temperatures().iter().zip(b.temperatures()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "threads {threads} width {min_width} lane {lane} slot {i}"
                        );
                    }
                }
            }
        }
    }

    /// One prepare followed by many steps of each shard (the benches'
    /// sweep, with no synchronization between shards) matches a
    /// prepare before every step.
    #[test]
    fn one_prepare_many_steps_matches_stepwise() {
        let nets = fleet(40, 2);
        let states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let dt = SimDuration::from_secs(1);
        let plan = ShardPlan::new(3).with_min_lanes_per_shard(4);

        let mut a = BatchSolver::<DenseBackend>::with_backend(&nets[0]);
        let mut blocks_a = pack_blocks(&states, &plan);
        let mut bound = Vec::new();
        let kernel = kernel_of(&mut a, &nets[0], dt, &mut bound);
        for (range, block) in &mut blocks_a {
            let spans = one_rack(range.len());
            let powers = power_block(&nets[range.clone()]);
            for _ in 0..80 {
                kernel.step_racks(block, &powers, &spans).unwrap();
            }
        }

        let mut b = BatchSolver::<DenseBackend>::with_backend(&nets[0]);
        let mut blocks_b = pack_blocks(&states, &plan);
        for _ in 0..80 {
            step_sharded(&mut b, &nets, &mut blocks_b);
        }
        assert_eq!(b.group_count(), 1, "the shared factorization is sticky");
        assert_eq!(unpack_all(&nets, &blocks_a), unpack_all(&nets, &blocks_b));
        assert!(max_temperature(&blocks_a) > 24.0);
    }

    #[test]
    fn mixed_flows_solve_per_class_then_recover() {
        let mut nets = fleet(6, 1);
        let states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let dt = SimDuration::from_secs(1);
        let plan = ShardPlan::new(2).with_min_lanes_per_shard(1);
        let mut solver = BatchSolver::<DenseBackend>::with_backend(&nets[0]);
        let mut blocks = pack_blocks(&states, &plan);
        let mut reference = Scalar::new(&nets, Celsius::new(24.0));
        let ch = crate::FlowChannelId(0);
        for step in 0..90 {
            // Lane 3 (in the second shard) runs its own flow for a
            // while, then rejoins the others.
            if step == 30 {
                nets[3].set_flow(ch, AirFlow::from_cfm(500.0)).unwrap();
            }
            if step == 60 {
                nets[3].set_flow(ch, AirFlow::from_cfm(250.0)).unwrap();
            }
            if (30..60).contains(&step) {
                // Two flow classes: each prepares from one of its own
                // lanes and steps only its lanes of each shard.
                for (template, class) in [(0, vec![0, 1, 2, 4, 5]), (3, vec![3])] {
                    let mut bound = Vec::new();
                    let kernel = kernel_of(&mut solver, &nets[template], dt, &mut bound);
                    for (range, block) in &mut blocks {
                        let members: Vec<usize> = class
                            .iter()
                            .filter(|lane| range.contains(lane))
                            .map(|lane| lane - range.start)
                            .collect();
                        let spans = one_rack(range.len());
                        let powers = power_block(&nets[range.clone()]);
                        kernel.step_lanes(block, &powers, &spans, &members).unwrap();
                    }
                }
            } else {
                step_sharded(&mut solver, &nets, &mut blocks);
            }
            reference.step(&nets, dt);
        }
        assert_eq!(solver.group_count(), 2);
        assert_eq!(unpack_all(&nets, &blocks), reference.states);
        assert!(max_temperature(&blocks) > 24.0);
    }
}
