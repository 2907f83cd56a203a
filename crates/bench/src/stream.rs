//! Seeded open-arrival request streams for the service measurements.
//!
//! A *service* is measured on a **request stream**, not a batch: who
//! arrives when, with what size of compilation unit, billed to which
//! tenant. This module generates those streams deterministically —
//! same seed, same stream — so the benchmark's wall-clock service and
//! the simulated service (the tail, shedding and crash-recovery pins
//! in `tests/golden_sim.rs`) replay identical arrival schedules.
//!
//! Interarrival gaps are exponential (Poisson arrivals, the standard
//! open-arrival model), sampled from the integer-only [`rand`] shim by
//! building the uniform variate from raw bits. Sizes come from
//! [`SizeClass`] — the generator shapes the other benches already use,
//! plus the bigger-than-paper [`GenConfig::huge`] unit that makes a
//! stream *skewed*: one huge request contaminating a stream of small
//! ones lengthens the latency of every small request that arrives
//! behind it, which is what sets the service's tail.

use paragram_pascal::generator::GenConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A compilation-unit size class, naming a generator shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// One procedure (~a few dozen nodes): the dominant request size of
    /// an interactive service.
    Proc,
    /// A small compilation unit (a couple of procedures).
    Unit,
    /// The paper's ≈2000-line measurement program.
    Paper,
    /// The bigger-than-paper unit (≥10× the paper's node count) — the
    /// stream contaminant that tail-latency experiments need.
    Huge,
}

impl SizeClass {
    /// The generator shape for this class, with `seed` varying the
    /// program (distinct seeds give distinct sources of the same
    /// shape).
    pub fn gen_config(self, seed: u64) -> GenConfig {
        match self {
            SizeClass::Proc => GenConfig {
                clusters: 1,
                procs_per_cluster: 1,
                stmts_per_proc: 3,
                nesting: 1,
                seed,
                template_clusters: 0,
            },
            SizeClass::Unit => GenConfig {
                clusters: 1,
                procs_per_cluster: 2,
                stmts_per_proc: 4,
                nesting: 1,
                seed,
                template_clusters: 0,
            },
            SizeClass::Paper => GenConfig {
                seed,
                ..GenConfig::paper()
            },
            SizeClass::Huge => GenConfig {
                seed,
                ..GenConfig::huge()
            },
        }
    }
}

/// Stream shape: how many requests, how fast, how big, how many
/// tenants.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// RNG seed; the stream is a pure function of this config.
    pub seed: u64,
    /// Number of requests.
    pub requests: usize,
    /// Mean exponential interarrival gap, in abstract ticks (scale to
    /// wall or virtual time at the call site).
    pub mean_interarrival: u64,
    /// Number of tenants; each request's tenant is sampled uniformly.
    pub tenants: u32,
    /// Size-class mix as `(class, weight)` pairs; weights are relative.
    pub mix: Vec<(SizeClass, u32)>,
    /// Fraction of requests (0.0–1.0) whose generator seed is drawn
    /// from a small fixed pool instead of being unique: duplicated
    /// traffic, the replay shape a cross-request memo cache exploits.
    /// Sampled from a side RNG so the arrival schedule, tenants and
    /// size classes are *identical* at any fraction. 0.0 (the default)
    /// keeps every request's source distinct.
    pub template_fraction: f64,
}

/// Number of distinct template seeds duplicated traffic draws from.
const TEMPLATE_POOL: u64 = 4;

/// Base of the template seed range — far from the per-request seed
/// range `cfg.seed + 1 + i` for any realistic stream seed.
const TEMPLATE_SEED_BASE: u64 = 0x7e3a_11ab_0000_0000;

impl StreamConfig {
    /// A skewed service stream: overwhelmingly small requests with a
    /// sprinkle of big ones — the shape whose small requests queue
    /// behind big ones.
    pub fn skewed(requests: usize, seed: u64) -> Self {
        StreamConfig {
            seed,
            requests,
            mean_interarrival: 1_000,
            tenants: 3,
            mix: vec![
                (SizeClass::Proc, 70),
                (SizeClass::Unit, 24),
                (SizeClass::Paper, 4),
                (SizeClass::Huge, 2),
            ],
            template_fraction: 0.0,
        }
    }

    /// The same stream shape with every class at or above `cap`
    /// replaced by `cap` (the simulator pins substitute `Paper` for
    /// `Huge` to stay seconds-scale while keeping the skew).
    pub fn capped(mut self, cap: SizeClass) -> Self {
        let rank = |c: SizeClass| match c {
            SizeClass::Proc => 0,
            SizeClass::Unit => 1,
            SizeClass::Paper => 2,
            SizeClass::Huge => 3,
        };
        for (class, _) in &mut self.mix {
            if rank(*class) > rank(cap) {
                *class = cap;
            }
        }
        self
    }
}

/// One generated request: arrival time (in the config's abstract
/// ticks), tenant, size class, and the per-request generator seed.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpec {
    /// Arrival time in abstract ticks, non-decreasing across the
    /// stream.
    pub arrival: u64,
    /// Tenant the request bills to.
    pub tenant: u32,
    /// Compilation-unit size class.
    pub class: SizeClass,
    /// Seed for this request's generated source (distinct per
    /// request).
    pub seed: u64,
}

/// A unit uniform variate from 64 raw bits: the top 53 bits, centered
/// in their bucket — never 0 or 1, so `ln` is safe.
fn unit_uniform(bits: u64) -> f64 {
    ((bits >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Generates the request stream for `cfg`: exponential interarrival
/// gaps, weighted size classes, uniform tenants. Deterministic in the
/// config.
///
/// # Panics
///
/// Panics if the mix is empty or all weights are zero.
pub fn generate_stream(cfg: &StreamConfig) -> Vec<RequestSpec> {
    let total_weight: u32 = cfg.mix.iter().map(|&(_, w)| w).sum();
    assert!(total_weight > 0, "stream mix needs positive weight");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Template decisions come from a separate RNG: the arrival/class/
    // tenant schedule is byte-identical at any template fraction.
    let mut trng = SmallRng::seed_from_u64(cfg.seed ^ TEMPLATE_SEED_BASE);
    let mut at = 0u64;
    (0..cfg.requests)
        .map(|i| {
            let u = unit_uniform(rng.next_u64());
            let gap = (-(cfg.mean_interarrival as f64) * u.ln()).round() as u64;
            at += gap;
            let mut pick = rng.gen_range(0..total_weight);
            let class = cfg
                .mix
                .iter()
                .find(|&&(_, w)| {
                    if pick < w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .expect("weights sum to total")
                .0;
            let tenant = rng.gen_range(0..cfg.tenants.max(1));
            let seed = if cfg.template_fraction > 0.0
                && unit_uniform(trng.next_u64()) < cfg.template_fraction
            {
                TEMPLATE_SEED_BASE + trng.next_u64() % TEMPLATE_POOL
            } else {
                cfg.seed.wrapping_add(1 + i as u64)
            };
            RequestSpec {
                arrival: at,
                tenant,
                class,
                seed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let cfg = StreamConfig::skewed(64, 9);
        let a = generate_stream(&cfg);
        let b = generate_stream(&cfg);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.arrival, x.tenant, x.class, x.seed),
                (y.arrival, y.tenant, y.class, y.seed)
            );
        }
        let c = generate_stream(&StreamConfig::skewed(64, 10));
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.arrival != y.arrival),
            "different seeds give different schedules"
        );
    }

    #[test]
    fn arrivals_are_sorted_and_gaps_average_near_the_mean() {
        let cfg = StreamConfig {
            requests: 2_000,
            ..StreamConfig::skewed(0, 3)
        };
        let stream = generate_stream(&cfg);
        assert!(stream.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let mean = stream.last().unwrap().arrival as f64 / stream.len() as f64;
        let want = cfg.mean_interarrival as f64;
        assert!(
            (mean - want).abs() < want * 0.15,
            "empirical mean gap {mean:.0} vs configured {want:.0}"
        );
    }

    #[test]
    fn the_mix_respects_the_weights() {
        let cfg = StreamConfig::skewed(1_000, 17);
        let stream = generate_stream(&cfg);
        let count = |class| stream.iter().filter(|r| r.class == class).count();
        let (p, u, a, h) = (
            count(SizeClass::Proc),
            count(SizeClass::Unit),
            count(SizeClass::Paper),
            count(SizeClass::Huge),
        );
        assert_eq!(p + u + a + h, 1_000);
        assert!(p > u && u > a, "proc {p} > unit {u} > paper {a}");
        assert!(
            (1..100).contains(&h),
            "huge contaminates, not dominates: {h}"
        );
        // Distinct per-request seeds.
        let mut seeds: Vec<u64> = stream.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1_000);
    }

    #[test]
    fn template_fraction_duplicates_seeds_without_touching_the_schedule() {
        let base = StreamConfig::skewed(400, 11);
        let plain = generate_stream(&base);
        let templated = generate_stream(&StreamConfig {
            template_fraction: 0.5,
            ..base.clone()
        });
        // Identical schedule, tenants and classes at any fraction.
        for (a, b) in plain.iter().zip(&templated) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.class, b.class);
        }
        // Roughly half the requests now share a handful of seeds.
        let mut seeds: Vec<u64> = templated.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let dups = templated.len() - seeds.len();
        assert!(
            (100..300).contains(&dups),
            "≈50% of 400 requests should duplicate, got {dups}"
        );
        // Fraction 0 is byte-identical to the unfractioned stream.
        let zero = generate_stream(&StreamConfig {
            template_fraction: 0.0,
            ..base
        });
        for (a, b) in plain.iter().zip(&zero) {
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn capping_substitutes_the_big_classes() {
        let cfg = StreamConfig::skewed(200, 5).capped(SizeClass::Paper);
        assert!(cfg.mix.iter().all(|&(c, _)| c != SizeClass::Huge));
        let stream = generate_stream(&cfg);
        assert!(stream.iter().all(|r| r.class != SizeClass::Huge));
        // The arrival schedule is unchanged by the substitution.
        let full = generate_stream(&StreamConfig::skewed(200, 5));
        for (a, b) in stream.iter().zip(&full) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.tenant, b.tenant);
        }
    }
}
