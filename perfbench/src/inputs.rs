//! Seeded input generation. Every input a workload feeds the program —
//! peer sets, payload sizes, the victim order and the destination
//! hosts — is a pure function of the `--seed` argument.

/// SplitMix64: a tiny, well-mixed generator that needs no dependency.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5eed_f5a0_b200_1cde)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Payload sizes of the flood workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Sizes {
    /// Every payload has this many bytes.
    Fixed(usize),
    /// Bounded Pareto between the two byte counts, tail index `alpha`.
    Pareto { min: usize, max: usize, alpha: f64 },
}

/// Sizes come from a table; message `seq` on lane `lane` takes entry
/// `(lane * 131 + seq) % len`, so sender and receiver agree on every
/// size without exchanging it.
const SIZE_TABLE: usize = 4096;

/// Everything one flood run feeds the program.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodInputs {
    pub ranks: usize,
    pub hosts: usize,
    /// `peers[src]`: the distinct ranks `src` sends to; every rank also
    /// receives from exactly as many.
    pub peers: Vec<Vec<usize>>,
    /// `lane_of[src * ranks + dst]`: the lane id of `src → dst`, or
    /// `u32::MAX` when `src` does not send to `dst`.
    pub lane_of: Vec<u32>,
    /// Number of lanes (`ranks * peers per rank`).
    pub lanes: usize,
    size_table: Vec<u32>,
    /// The ranks to migrate, in order.
    pub victims: Vec<usize>,
    /// `dest_hosts[k]`: the host index victim `k` moves to.
    pub dest_hosts: Vec<usize>,
}

impl FloodInputs {
    pub fn generate(
        seed: u64,
        ranks: usize,
        hosts: usize,
        degree: usize,
        sizes: &Sizes,
        migrations: usize,
    ) -> FloodInputs {
        assert!(degree < ranks && hosts >= 2);
        let mut rng = SplitMix::new(seed);
        // A seeded circulant graph under a seeded relabeling: every rank
        // sends to `degree` peers and receives from `degree` peers, so
        // no seed concentrates load on a few ranks.
        let label = rng.permutation(ranks);
        let offsets: Vec<usize> = rng.permutation(ranks - 1)[..degree]
            .iter()
            .map(|o| o + 1)
            .collect();
        let mut peers = vec![Vec::new(); ranks];
        for i in 0..ranks {
            peers[label[i]] = offsets.iter().map(|o| label[(i + o) % ranks]).collect();
        }
        let mut lane_of = vec![u32::MAX; ranks * ranks];
        let mut lanes = 0u32;
        for (src, mine) in peers.iter().enumerate() {
            for &dst in mine {
                lane_of[src * ranks + dst] = lanes;
                lanes += 1;
            }
        }
        // The table holds the distribution's 4096 quantiles in seeded
        // order, so every seed offers the same mix of sizes.
        let quantile = |i: usize| match *sizes {
            Sizes::Fixed(n) => n as u32,
            Sizes::Pareto { min, max, alpha } => {
                let (l, h) = (min as f64, max as f64);
                let u = (i as f64 + 0.5) / SIZE_TABLE as f64;
                let x = l / (1.0 - u * (1.0 - (l / h).powf(alpha))).powf(1.0 / alpha);
                (x as usize).clamp(min, max) as u32
            }
        };
        let size_table = rng
            .permutation(SIZE_TABLE)
            .into_iter()
            .map(quantile)
            .collect();
        // Victims sweep a seeded rank order round-robin; each moves to a
        // seeded host other than the one it is on.
        let order = rng.permutation(ranks);
        let mut at: Vec<usize> = (0..ranks).map(|r| r % hosts).collect();
        let mut victims = Vec::with_capacity(migrations);
        let mut dest_hosts = Vec::with_capacity(migrations);
        for k in 0..migrations {
            let v = order[k % ranks];
            let dest = (at[v] + 1 + rng.below(hosts - 1)) % hosts;
            at[v] = dest;
            victims.push(v);
            dest_hosts.push(dest);
        }
        FloodInputs {
            ranks,
            hosts,
            peers,
            lane_of,
            lanes: lanes as usize,
            size_table,
            victims,
            dest_hosts,
        }
    }

    /// Lane id of `src → dst`, if `src` sends to `dst`.
    pub fn lane(&self, src: usize, dst: usize) -> Option<usize> {
        match self.lane_of.get(src * self.ranks + dst) {
            Some(&l) if l != u32::MAX => Some(l as usize),
            _ => None,
        }
    }

    /// Every lane `rank` sends or receives on.
    pub fn incident_lanes(&self, rank: usize) -> Vec<usize> {
        (0..self.ranks)
            .flat_map(|other| [self.lane(rank, other), self.lane(other, rank)])
            .flatten()
            .collect()
    }

    /// Payload bytes of message `seq` on `lane`.
    pub fn size(&self, lane: usize, seq: u64) -> usize {
        let i = (lane as u64).wrapping_mul(131).wrapping_add(seq) % SIZE_TABLE as u64;
        self.size_table[i as usize] as usize
    }
}

/// The MG workload's migration plan: victims round-robin over a seeded
/// rank order, each onto the next spare host it is not already on.
pub fn mg_plan(seed: u64, ranks: usize, spares: usize, migrations: usize) -> Vec<(usize, usize)> {
    let mut rng = SplitMix::new(seed);
    let order = rng.permutation(ranks);
    let mut next_spare = rng.below(spares);
    let mut at: Vec<Option<usize>> = vec![None; ranks];
    (0..migrations)
        .map(|k| {
            let v = order[k % ranks];
            if at[v] == Some(next_spare) {
                next_spare = (next_spare + 1) % spares;
            }
            let dest = next_spare;
            next_spare = (next_spare + 1) % spares;
            at[v] = Some(dest);
            (v, dest)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pareto() -> Sizes {
        Sizes::Pareto {
            min: 64,
            max: 64 * 1024,
            alpha: 1.2,
        }
    }

    #[test]
    fn same_seed_generates_identical_inputs() {
        let a = FloodInputs::generate(7, 32, 8, 8, &pareto(), 500);
        let b = FloodInputs::generate(7, 32, 8, 8, &pareto(), 500);
        assert_eq!(a, b);
        assert_eq!(mg_plan(7, 8, 4, 120), mg_plan(7, 8, 4, 120));
        let c = FloodInputs::generate(8, 32, 8, 8, &pareto(), 500);
        assert_ne!(a.peers, c.peers);
        assert_ne!(mg_plan(7, 8, 4, 120), mg_plan(8, 8, 4, 120));
    }

    #[test]
    fn peers_are_distinct_and_never_self() {
        let f = FloodInputs::generate(3, 64, 8, 8, &Sizes::Fixed(64), 0);
        assert_eq!(f.lanes, 64 * 8);
        for (src, peers) in f.peers.iter().enumerate() {
            let mut p = peers.clone();
            p.sort_unstable();
            p.dedup();
            assert_eq!(p.len(), 8);
            assert!(!p.contains(&src));
            for &dst in peers {
                assert!(f.lane(src, dst).is_some());
            }
            // Eight out and eight in.
            assert_eq!(f.incident_lanes(src).len(), 16);
        }
        assert_eq!(f.size(5, 99), 64);
    }

    #[test]
    fn pareto_sizes_stay_in_bounds_and_have_a_tail() {
        let f = FloodInputs::generate(11, 32, 8, 8, &pareto(), 0);
        let sizes: Vec<usize> = (0..4096).map(|s| f.size(0, s)).collect();
        assert!(sizes.iter().all(|&s| (64..=65536).contains(&s)));
        assert!(sizes.iter().any(|&s| s > 8 * 1024));
        assert!(sizes.iter().filter(|&&s| s < 256).count() > 2048);
        let g = FloodInputs::generate(12, 32, 8, 8, &pareto(), 0);
        let mut a: Vec<usize> = (0..4096).map(|s| f.size(0, s)).collect();
        let mut b: Vec<usize> = (0..4096).map(|s| g.size(0, s)).collect();
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "every seed offers the same mix of sizes");
    }

    #[test]
    fn migrations_always_change_host() {
        let f = FloodInputs::generate(5, 32, 8, 8, &Sizes::Fixed(64), 300);
        let mut at: Vec<usize> = (0..32).map(|r| r % 8).collect();
        for (&v, &d) in f.victims.iter().zip(&f.dest_hosts) {
            assert_ne!(at[v], d);
            at[v] = d;
        }
        let mut on: Vec<Option<usize>> = vec![None; 8];
        for (v, d) in mg_plan(5, 8, 4, 100) {
            assert!(d < 4);
            assert_ne!(on[v], Some(d));
            on[v] = Some(d);
        }
    }
}
