//! The served workload: a closed loop of one driver thread against a
//! job engine that owns a two-rank pool.
//!
//! A wave is eight jobs: one long two-rank priority-0 *victim*; once it
//! holds its ranks, one two-rank priority-9 *urgent* job that preempts
//! it; and six *tenants* on one or two ranks at priorities 1 to 6, the
//! last of which repeats a request of the previous wave and is answered
//! from the factor cache. The next wave is submitted only when all
//! eight have been waited for. A pass is [`WAVES`] waves; passes differ
//! only in the permutations of their matrices, so each does the same
//! work on requests the cache has not seen.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use lra::sparse::CscMatrix;

use crate::adapter::{self, JobRequest, Served, Service};
use crate::inputs::{serve_short, serve_victim};
use crate::report::Results;
use crate::spans::Recorder;
use crate::stats::{median, peak_rss_mb, percentile, summarize};
use crate::workloads::{finish, threads, timed_passes, RunArgs, MAX_PASSES};

/// Waves in a pass, and tenants in a wave.
pub const WAVES: usize = 5;
pub const TENANTS: usize = 6;
const POOL_RANKS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Victim,
    Urgent,
    Tenant,
}

fn request(matrix: Arc<CscMatrix>, class: Class, ranks: usize, priority: u8) -> JobRequest {
    let (k, tau) = match class {
        // Block size 2 at τ=1e-6 makes the victim run for dozens of
        // panel iterations: long enough to be caught mid-factorization.
        Class::Victim => (2, 1e-6),
        Class::Urgent | Class::Tenant => (4, 1e-3),
    };
    JobRequest {
        matrix,
        k,
        tau,
        u_estimate: 8,
        ranks,
        priority,
    }
}

/// Rank-group size of tenant `slot` (1-based): alternately 2 and 1.
fn tenant_ranks(slot: usize) -> usize {
    1 + slot % 2
}

/// The eight requests of one wave, in submission order. `wave` counts
/// from 0 across the whole run; pass and wave-in-pass derive from it.
fn wave_requests(seed: u64, wave: usize) -> Vec<(Class, JobRequest)> {
    let (pass, w) = (wave / WAVES, wave % WAVES);
    let mut out = vec![
        (
            Class::Victim,
            request(serve_victim(seed, pass, w), Class::Victim, POOL_RANKS, 0),
        ),
        (
            Class::Urgent,
            request(serve_short(seed, pass, w, 0), Class::Urgent, POOL_RANKS, 9),
        ),
    ];
    for slot in 1..=TENANTS {
        let repeat = slot == TENANTS && wave > 0;
        let (matrix, ranks) = if repeat {
            // The first tenant of the previous wave, asked for again.
            let (pp, pw) = ((wave - 1) / WAVES, (wave - 1) % WAVES);
            (serve_short(seed, pp, pw, 1), tenant_ranks(1))
        } else {
            (serve_short(seed, pass, w, slot), tenant_ranks(slot))
        };
        out.push((
            Class::Tenant,
            request(matrix, Class::Tenant, ranks, slot as u8),
        ));
    }
    out
}

/// One finished wave: its wall time, and each job with its true
/// relative error where it passed the gate.
struct Wave {
    wall_s: f64,
    jobs: Vec<(Job, Option<f64>)>,
}

struct Job {
    class: Class,
    request: JobRequest,
    submit_s: f64,
    served: Served,
}

/// Submit one wave and wait for all of it; returns the jobs and the
/// wave's wall time, first submit to last wait. `Err` names a request
/// the engine refused.
fn run_wave(
    service: &Service,
    requests: Vec<(Class, JobRequest)>,
    rec: &Recorder,
) -> Result<(Vec<Job>, f64), String> {
    rec.span("wave", || {
        let start = Instant::now();
        let mut tickets = Vec::with_capacity(requests.len());
        for (class, request) in &requests {
            let t = Instant::now();
            let ticket = rec.span("submit", || service.submit(request))?;
            tickets.push((ticket, t.elapsed().as_secs_f64()));
            if *class == Class::Victim {
                service.wait_until_running(ticket);
            }
        }
        let served: Vec<Served> = rec.span("wait", || {
            tickets
                .iter()
                .map(|(ticket, _)| service.wait(*ticket))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let jobs = requests
            .into_iter()
            .zip(tickets)
            .zip(served)
            .map(|(((class, request), (_, submit_s)), served)| Job {
                class,
                request,
                submit_s,
                served,
            })
            .collect();
        Ok((jobs, wall_s))
    })
}

/// The correctness gate on one served job; returns its true relative
/// error.
fn gate(job: &Job, threads: usize) -> Result<f64, String> {
    let a = &job.request.matrix;
    if !job.served.completed {
        return Err("ended interrupted".to_string());
    }
    if !job.served.converged {
        return Err("did not converge".to_string());
    }
    let rel = adapter::true_error(&job.served.factors, a, threads) / a.fro_norm();
    // A NaN error compares false and fails.
    if rel < job.request.tau {
        Ok(rel)
    } else {
        Err(format!("true error {rel:e} >= tau {:e}", job.request.tau))
    }
}

pub fn run(args: &RunArgs) -> Results {
    let rec = Recorder::new();
    let threads = threads();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    // ---- set-up: every request of the run, then one warm-up pass ---------
    let t = Instant::now();
    let waves: Vec<Vec<(Class, JobRequest)>> = (0..(1 + MAX_PASSES) * WAVES)
        .map(|wave| wave_requests(args.seed, wave))
        .collect();
    let generate_s = t.elapsed().as_secs_f64();
    let mut waves = waves.into_iter();
    let service = Service::start(POOL_RANKS);

    // Runs one pass: per wave, its wall time and its jobs with their
    // true relative errors where they passed the gate. The checks run
    // after the last wave, outside every timed interval.
    let mut run_pass = |label: &str, failures: &mut Vec<String>| -> Vec<Wave> {
        let mut waves_done = Vec::new();
        rec.span("pass", || {
            for w in 0..WAVES {
                let requests = waves.next().expect("one request list per wave of the run");
                attempted += requests.len() as u64;
                match run_wave(&service, requests, &rec) {
                    Ok(done) => waves_done.push(done),
                    Err(e) => failures.push(format!("{label} wave {w}: request refused: {e}")),
                }
            }
        });
        waves_done
            .into_iter()
            .enumerate()
            .map(|(w, (jobs, wall_s))| {
                let jobs = jobs
                    .into_iter()
                    .map(|job| {
                        let rel = rec.span("verify", || gate(&job, threads));
                        let rel = rel
                            .map_err(|e| {
                                failures.push(format!("{label} wave {w} {:?}: {e}", job.class))
                            })
                            .ok();
                        (job, rel)
                    })
                    .collect();
                Wave { wall_s, jobs }
            })
            .collect()
    };

    let warm_s: f64 = run_pass("warm-up", &mut failures)
        .iter()
        .map(|w| w.wall_s)
        .sum();
    let setup_s = args.started.elapsed().as_secs_f64();

    // ---- timed passes -----------------------------------------------------
    let n_passes = timed_passes(args.seconds, warm_s, args.traced);
    // Wave `w` of every pass asks for the same work, so its wall times
    // over the passes are one series; likewise slot `j` of wave `w`.
    let mut wave_s = vec![Vec::new(); WAVES];
    let mut traced_wave_s = vec![Vec::new(); WAVES];
    let mut slot_s_per_digit = vec![Vec::new(); WAVES * (2 + TENANTS)];
    let mut pass_rank_sum = Vec::new();
    let mut pass_factor_mb = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    for pass in 1..=n_passes {
        let spans_on = args.traced && pass % 2 == 0;
        rec.set_enabled(spans_on);
        rec.set_pass(pass as u32);
        let mut rank_sum = 0.0;
        let mut factor_bytes = 0.0;
        for (w, wave) in run_pass(&format!("pass {pass}"), &mut failures)
            .into_iter()
            .enumerate()
        {
            let series = if spans_on {
                &mut traced_wave_s
            } else {
                &mut wave_s
            };
            series[w].push(wave.wall_s);
            for (j, (job, rel)) in wave.jobs.into_iter().enumerate() {
                if let Some(rel) = rel {
                    slot_s_per_digit[w * (2 + TENANTS) + j].push(job.served.wall_s / -rel.log10());
                }
                rank_sum += job.served.rank as f64;
                factor_bytes += job.served.factor_bytes as f64;
                jobs.push(job);
            }
        }
        pass_rank_sum.push(rank_sum);
        pass_factor_mb.push(factor_bytes / 1e6);
    }
    rec.set_enabled(args.traced);
    rec.set_pass(0);
    let peak_rss = peak_rss_mb().unwrap_or(0.0);

    // ---- one preempted victim against a solo run, bit for bit -------------
    attempted += 1;
    match jobs
        .iter()
        .find(|j| j.class == Class::Victim && j.served.preemptions > 0)
    {
        None => failures.push("no victim was preempted in any wave".to_string()),
        Some(victim) => match adapter::solo(&victim.request) {
            Ok((solo, _)) if adapter::same_bits(&solo, &victim.served.factors) => {}
            Ok(_) => {
                failures.push("preempted victim differs bitwise from its solo run".to_string())
            }
            Err(e) => failures.push(format!("solo run of the sampled victim: {e}")),
        },
    }

    // ---- metrics ------------------------------------------------------------
    let latencies = |class: Option<Class>| -> Vec<f64> {
        jobs.iter()
            .filter(|j| class.is_none_or(|c| j.class == c))
            .map(|j| j.served.wall_s)
            .collect()
    };
    let all = latencies(None);
    let sum_of_medians = |series: &[Vec<f64>]| series.iter().map(|v| median(v)).sum::<f64>();
    let all_wave_s: Vec<Vec<f64>> = wave_s
        .iter()
        .zip(&traced_wave_s)
        .map(|(off, on)| off.iter().chain(on).copied().collect())
        .collect();
    values.insert("setup_s", setup_s);
    // Each wave's median over the passes, summed over the pass's waves.
    values.insert("solve_s", sum_of_medians(&all_wave_s));
    values.insert("s_per_digit", sum_of_medians(&slot_s_per_digit));
    values.insert("rank_sum", median(&pass_rank_sum));
    values.insert("factor_mb", median(&pass_factor_mb));
    values.insert("peak_rss_mb", peak_rss);
    values.insert("job_p50_s", percentile(&all, 50.0));
    values.insert("job_p95_s", percentile(&all, 95.0));

    let mut timings = BTreeMap::new();
    for (w, v) in all_wave_s.iter().enumerate() {
        timings.insert(format!("wave.{w}"), summarize(v));
    }
    timings.insert("job".to_string(), summarize(&all));

    if args.traced {
        let total =
            |f: fn(&Served) -> usize| jobs.iter().map(|j| f(&j.served)).sum::<usize>() as f64;
        let driver_calls = total(|s| s.driver_calls);
        let submits: Vec<f64> = jobs.iter().map(|j| j.submit_s).collect();
        let hits: Vec<f64> = jobs
            .iter()
            .filter(|j| j.served.from_cache)
            .map(|j| j.served.wall_s)
            .collect();
        values.insert("serve.submit_s", median(&submits));
        values.insert("serve.cache_hit_s", median(&hits));
        values.insert(
            "serve.urgent_p50_s",
            median(&latencies(Some(Class::Urgent))),
        );
        values.insert(
            "serve.victim_p50_s",
            median(&latencies(Some(Class::Victim))),
        );
        values.insert(
            "serve.tenant_p50_s",
            median(&latencies(Some(Class::Tenant))),
        );
        values.insert("serve.preemptions", total(|s| s.preemptions));
        values.insert("serve.resumes", total(|s| s.driver_calls.saturating_sub(1)));
        values.insert("serve.cache_hits", hits.len() as f64);
        values.insert("serve.driver_calls", driver_calls);
        values.insert(
            "serve.jobs_per_driver_call",
            jobs.len() as f64 / driver_calls.max(1.0),
        );
        values.insert("matgen.generate_s", generate_s);
        values.insert(
            "obs.bench_trace_overhead_ratio",
            sum_of_medians(&traced_wave_s) / sum_of_medians(&wave_s),
        );
        failures.extend(probes(&service, args.seed, &rec, &mut values));
    }
    service.shutdown();

    if args.traced {
        // The kernel probes run on the first victim matrix.
        let a = serve_victim(args.seed, 0, 0);
        let p = adapter::Problem {
            a_norm: a.fro_norm(),
            a: Arc::unwrap_or_clone(a),
            u_estimates: Vec::new(),
            sketch_seed: crate::inputs::derive(args.seed, 99),
        };
        crate::probes::layers(&p, threads, None, &rec, &mut values);
    }

    finish(args, &rec, attempted, failures, values, timings)
}

/// Engine probes on an idle pool, after the passes: what the engine
/// adds to one two-rank tenant job over the same factorization run
/// directly, and the cost of a scrape. Returns what failed.
fn probes(
    service: &Service,
    seed: u64,
    rec: &Recorder,
    values: &mut BTreeMap<&'static str, f64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut overheads = Vec::new();
    rec.span("probe.serve.solo_overhead_s", || {
        for i in 0..crate::probes::CALLS {
            // A pass index beyond the run's: requests no wave has made.
            let request = request(
                serve_short(seed, MAX_PASSES + 1, i, 1),
                Class::Tenant,
                POOL_RANKS,
                5,
            );
            let served = service.submit(&request).map(|t| service.wait(t));
            match (served, adapter::solo(&request)) {
                (Ok(served), Ok((_, solo_s))) => overheads.push(served.wall_s - solo_s),
                (Err(e), _) | (_, Err(e)) => failures.push(format!("solo-overhead probe: {e}")),
            }
        }
    });
    values.insert("serve.solo_overhead_s", median(&overheads));
    let scrapes: Vec<f64> = rec.span("probe.serve.scrape_s", || {
        (0..crate::probes::CALLS)
            .map(|_| crate::probes::secs(|| service.scrape()))
            .collect()
    });
    values.insert("serve.scrape_s", median(&scrapes));
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wave_is_victim_urgent_and_six_tenants() {
        let wave = wave_requests(7, 3);
        let classes: Vec<Class> = wave.iter().map(|(c, _)| *c).collect();
        assert_eq!(classes[..2], [Class::Victim, Class::Urgent]);
        assert_eq!(classes.len(), 2 + TENANTS);
        assert!(classes[2..].iter().all(|c| *c == Class::Tenant));
        let priorities: Vec<u8> = wave.iter().map(|(_, r)| r.priority).collect();
        assert_eq!(priorities, [0, 9, 1, 2, 3, 4, 5, 6]);
        assert!(wave
            .iter()
            .all(|(_, r)| (1..=POOL_RANKS).contains(&r.ranks)));
    }

    #[test]
    fn the_last_tenant_repeats_the_previous_waves_first() {
        // Across a pass boundary too: wave 5 is the first of pass 1.
        for wave in [1, WAVES] {
            let prev = wave_requests(7, wave - 1);
            let this = wave_requests(7, wave);
            let (first, last) = (&prev[2].1, &this[1 + TENANTS].1);
            assert_eq!(first.matrix.fingerprint(), last.matrix.fingerprint());
            assert_eq!(
                (first.ranks, first.k, first.tau),
                (last.ranks, last.k, last.tau)
            );
        }
        // The very first wave has nothing to repeat.
        let first = wave_requests(7, 0);
        let prints: std::collections::BTreeSet<u64> =
            first.iter().map(|(_, r)| r.matrix.fingerprint()).collect();
        assert_eq!(prints.len(), first.len());
    }

    #[test]
    fn passes_ask_for_the_same_work_on_different_matrices() {
        let (a, b) = (wave_requests(7, 2), wave_requests(7, WAVES + 2));
        for ((_, x), (_, y)) in a.iter().zip(&b).take(1 + TENANTS) {
            assert_eq!(
                (x.matrix.rows(), x.matrix.nnz()),
                (y.matrix.rows(), y.matrix.nnz())
            );
            assert_ne!(x.matrix.fingerprint(), y.matrix.fingerprint());
        }
    }
}
