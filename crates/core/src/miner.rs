//! The full MISCELA pipeline.
//!
//! [`Miner`] runs the four steps of Section 2.2 over a [`Dataset`]:
//! linear segmentation, evolving-timestamp extraction, spatially connected
//! component discovery, and the per-component CAP search. The result bundles
//! the [`CapSet`] with a [`MiningReport`] of per-step timings and sizes —
//! the report is what the Figure-2 pipeline experiment prints.
//!
//! Both parallel phases — the per-series extraction map of steps (1)+(2)
//! and the per-component CAP search of step (4) — run on the shared
//! work-stealing scheduler ([`crate::scheduler`]): work units are sorted by
//! estimated cost where costs are known, claimed through a shared atomic
//! cursor, and reassembled in unit order, so one giant component — the
//! realistic city-scale shape — no longer gates wall-clock time and the
//! output never depends on thread timing. Each search worker owns one
//! reusable [`SearchScratch`], keeping the hot path allocation-free across
//! all the units it processes.
//!
//! [`Miner::mine_with_cache`] additionally consults an
//! [`EvolvingCache`] keyed by series fingerprint and extraction parameters,
//! so interactive re-mining with tweaked ψ/η/μ skips steps (1)+(2)
//! entirely on unchanged series.

use crate::cancel::CancelToken;
use crate::delayed::{mine_delayed, DelayedCap};
use crate::error::MiningError;
use crate::evolving::{
    derive_trimmed, extract_resume, extract_state, extract_with_segmentation, EvolvingCache,
    EvolvingSets, ExtractionKey, ExtractionState, SeriesFingerprinter,
};
use crate::params::MiningParams;
use crate::pattern::{Cap, CapSet};
use crate::scheduler;
use crate::search::{SearchContext, SearchScratch};
use crate::spatial::ProximityGraph;
use miscela_model::{AttributeId, Dataset, SensorIndex};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-step timings and intermediate sizes of one mining run.
#[derive(Debug, Clone, Default)]
pub struct MiningReport {
    /// Time spent in segmentation + evolving-timestamp extraction.
    pub extraction_time: Duration,
    /// Number of series whose extraction was served from the evolving-sets
    /// cache (always 0 for [`Miner::mine`], which runs cache-less).
    pub extraction_cache_hits: usize,
    /// Number of series whose extraction *resumed* from a cached prefix
    /// state — the appended-series path: the cache missed on the full
    /// content but hit on a pre-append prefix fingerprint, so only the
    /// appended tail was re-extracted.
    pub extraction_prefix_hits: usize,
    /// Number of series whose extraction was *derived* from the cached
    /// state of their untrimmed origin — the retained-window path: after a
    /// block-granular front trim, an origin-anchored fingerprint found the
    /// pre-trim state and [`derive_trimmed`] converted it by word shifts
    /// instead of a full re-extraction.
    pub extraction_trim_hits: usize,
    /// Number of series where an origin state was found after a trim but
    /// the derivation could not be proven byte-identical (e.g. the trim
    /// changed the segmentation tolerance), forcing a cold re-extraction.
    pub extraction_trim_fallbacks: usize,
    /// Time spent building the proximity graph and its components.
    pub spatial_time: Duration,
    /// Time spent in the CAP search.
    pub search_time: Duration,
    /// Total number of evolving timestamps over all sensors (both
    /// directions).
    pub evolving_events: usize,
    /// Number of proximity edges.
    pub proximity_edges: usize,
    /// Number of connected components with at least two sensors.
    pub searchable_components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Number of CAPs found.
    pub cap_count: usize,
}

impl MiningReport {
    /// Total wall time of the pipeline.
    pub fn total_time(&self) -> Duration {
        self.extraction_time + self.spatial_time + self.search_time
    }
}

/// The result of one mining run.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// The discovered CAPs.
    pub caps: CapSet,
    /// Pairwise time-delayed CAPs (empty unless `max_delay > 0`).
    pub delayed: Vec<DelayedCap>,
    /// Pipeline statistics.
    pub report: MiningReport,
}

/// What the grid planner of [`Miner::mine_sweep`] shared across the batch,
/// plus the sweep-wide extraction cache counters (per-point reports carry
/// zeros for these — a cache probe happens once per extraction class, not
/// once per point).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid points requested (including duplicates).
    pub requested_points: usize,
    /// Distinct grid points after deduplication.
    pub unique_points: usize,
    /// Distinct (ε, segmentation) extraction classes — steps (1)+(2) ran
    /// once per class instead of once per point.
    pub extraction_classes: usize,
    /// Distinct η values — step (3) built one proximity graph per value.
    pub graphs_built: usize,
    /// Distinct searches — step (4) ran once per group of points that
    /// differ only in ψ and μ, at the group's minimum ψ and maximum μ
    /// (μ-variants merge only when their minimum ψ is the same).
    pub search_groups: usize,
    /// Series extractions served whole from the evolving-sets cache.
    pub extraction_cache_hits: usize,
    /// Series extractions resumed from a cached pre-append prefix state.
    pub extraction_prefix_hits: usize,
    /// Series extractions derived from a cached pre-trim origin state.
    pub extraction_trim_hits: usize,
    /// Origin states found after a trim but not provably derivable,
    /// forcing a cold re-extraction.
    pub extraction_trim_fallbacks: usize,
}

impl SweepStats {
    /// Copies the sweep-wide extraction cache counters into `report`: how a
    /// one-point sweep reports as a solo mine.
    pub fn copy_cache_counters(&self, report: &mut MiningReport) {
        report.extraction_cache_hits = self.extraction_cache_hits;
        report.extraction_prefix_hits = self.extraction_prefix_hits;
        report.extraction_trim_hits = self.extraction_trim_hits;
        report.extraction_trim_fallbacks = self.extraction_trim_fallbacks;
    }
}

/// The result of one batch parameter sweep ([`Miner::mine_sweep`]):
/// one [`MiningResult`] per requested grid point (in request order,
/// duplicates sharing their unique point's result) plus the planner
/// statistics.
#[derive(Debug, Clone)]
pub struct SweepOutput {
    /// Per-point results; `results[i]` corresponds to `points[i]`.
    pub results: Vec<MiningResult>,
    /// What the planner shared across the grid.
    pub stats: SweepStats,
}

/// Extraction cache counters shared across the scheduler workers of one
/// mine or sweep.
#[derive(Default)]
struct ExtractionTallies {
    cache_hits: AtomicUsize,
    prefix_hits: AtomicUsize,
    trim_hits: AtomicUsize,
    trim_fallbacks: AtomicUsize,
}

/// The MISCELA miner.
#[derive(Debug, Clone)]
pub struct Miner {
    params: MiningParams,
}

impl Miner {
    /// Creates a miner with the given parameters. The parameters are
    /// validated here so that invalid requests fail before any work is done.
    pub fn new(params: MiningParams) -> Result<Self, MiningError> {
        params.validate()?;
        Ok(Miner { params })
    }

    /// The miner's parameters.
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// Runs the full pipeline over a dataset.
    pub fn mine(&self, dataset: &Dataset) -> Result<MiningResult, MiningError> {
        self.mine_with_cache(dataset, None)
    }

    /// Runs the full pipeline, consulting `extraction_cache` (when given)
    /// for per-series evolving sets so steps (1)+(2) are skipped on series
    /// whose content and extraction parameters are unchanged. This is the
    /// entry point the server's interactive path uses: re-mining with
    /// tweaked ψ/η/μ pays only for the search.
    pub fn mine_with_cache(
        &self,
        dataset: &Dataset,
        extraction_cache: Option<&dyn EvolvingCache>,
    ) -> Result<MiningResult, MiningError> {
        self.mine_cancellable(dataset, extraction_cache, &CancelToken::never())
    }

    /// Cancellation-aware form of [`Miner::mine_with_cache`]: a one-point
    /// [`Miner::mine_sweep`], polling the token exactly like the sweep does
    /// and returning [`MiningError::Cancelled`] /
    /// [`MiningError::DeadlineExceeded`] when it fires. The sweep-wide
    /// extraction cache counters are copied into the one report.
    ///
    /// An aborted mine never produces a partial [`MiningResult`]; the only
    /// externally visible residue is extraction states already written to
    /// `extraction_cache`, which are keyed by series content + parameters
    /// and therefore remain correct for any later mine.
    pub fn mine_cancellable(
        &self,
        dataset: &Dataset,
        extraction_cache: Option<&dyn EvolvingCache>,
        cancel: &CancelToken,
    ) -> Result<MiningResult, MiningError> {
        let points = std::slice::from_ref(&self.params);
        let mut out = Miner::mine_sweep(dataset, points, extraction_cache, cancel)?;
        let mut result = out.results.pop().expect("one result per point");
        out.stats.copy_cache_counters(&mut result.report);
        Ok(result)
    }

    /// Mines an entire parameter grid over one dataset as a single
    /// scheduled job, sharing every stage the grid permits.
    ///
    /// An interactive sweep over ψ/η/μ re-runs the pipeline once per grid
    /// point; almost all of that work is identical between points. This
    /// batch entry point plans the grid instead:
    ///
    /// * **extraction classes** — steps (1)+(2) depend only on
    ///   (ε, segmentation, segmentation error), normalized exactly like
    ///   [`ExtractionKey`]; each class extracts once, and all class×series
    ///   extractions fan through the shared scheduler as one
    ///   work-stealing batch (with the same cache probe chain as
    ///   [`Miner::mine_with_cache`]);
    /// * **one proximity graph per distinct η** — step (3) ignores every
    ///   other parameter;
    /// * **search groups** — distinct points that differ only in ψ and μ
    ///   share one step-(4) search. The points of one μ are first grouped
    ///   at their minimum ψ; the groups of different μ that share that
    ///   ψ_min are then merged and searched once at (ψ_min, μ_max), which
    ///   is exactly the search their μ_max member would have run alone, so
    ///   merging never adds search work. Each member filters the group's
    ///   caps by `support >= ψ && attributes.len() <= μ`, which reproduces
    ///   its independent mine byte-for-byte ([`CapSet::from_caps`] applies
    ///   a ψ- and μ-independent total order):
    ///   - ψ is consulted only as a support floor (candidate pruning and
    ///     emit gating) and supports are nonincreasing along ESU extension
    ///     paths, so the ψ_min run's caps are a superset of every member's.
    ///   - μ is consulted only by the attribute prune, which skips an
    ///     extension without touching the extension set or the
    ///     closed-neighbourhood marks any sibling sees. Every sensor set
    ///     within μ attributes is therefore reached along the same ESU path
    ///     with the same candidates and direction tie-break at μ_max, and
    ///     since the attribute count only grows along a path, no ancestor
    ///     of such a set is pruned at μ either.
    ///   - The delayed extension ignores μ, and its per-edge best pair
    ///     maximizes support before the ψ floor is consulted, so its group
    ///     result filters exactly by ψ.
    ///
    /// All search groups' work units (whole small components, per-seed
    /// subtrees of oversized ones) are tagged with their group, globally
    /// sorted by estimated cost, and claimed through **one** scheduler
    /// batch, so a cheap grid point's units backfill workers that would
    /// otherwise idle behind an expensive point.
    ///
    /// Duplicate grid points are deduplicated and share one result;
    /// `results[i]` always corresponds to `points[i]`. Per-point reports
    /// carry the sweep's *shared* phase timings (each point paid them once,
    /// together) and zero cache counters — the sweep-wide cache counters
    /// live in [`SweepStats`]. Every solo mine is a one-point sweep
    /// ([`Miner::mine_cancellable`]), so this is the only pipeline.
    ///
    /// The token is polled between pipeline phases, at every scheduler unit
    /// boundary, and every [`crate::CANCEL_CHECK_STRIDE`] ESU expansion
    /// steps inside the search, so an in-flight sweep aborts within a
    /// bounded stride. An aborted sweep leaves at most content-keyed
    /// extraction states in the cache, which remain correct for any later
    /// mine.
    pub fn mine_sweep(
        dataset: &Dataset,
        points: &[MiningParams],
        extraction_cache: Option<&dyn EvolvingCache>,
        cancel: &CancelToken,
    ) -> Result<SweepOutput, MiningError> {
        for p in points {
            p.validate()?;
        }
        if dataset.timestamp_count() < 2 {
            return Err(MiningError::DatasetTooSmall(dataset.timestamp_count()));
        }
        if points.is_empty() {
            return Ok(SweepOutput {
                results: Vec::new(),
                stats: SweepStats::default(),
            });
        }

        // Grid planning: collapse repeated points, then factor the distinct
        // ones into the equivalence classes each pipeline stage admits.
        let mut unique: Vec<MiningParams> = Vec::new();
        let mut point_of: Vec<usize> = Vec::with_capacity(points.len());
        {
            let mut by_sig: HashMap<String, usize> = HashMap::new();
            for p in points {
                let idx = *by_sig.entry(p.signature()).or_insert_with(|| {
                    unique.push(p.clone());
                    unique.len() - 1
                });
                point_of.push(idx);
            }
        }

        // Extraction classes, keyed by what steps (1)+(2) consume —
        // normalized the same way `ExtractionKey` is, so an ineffective
        // segmentation setting collapses into the unsegmented class and
        // class members share cache entries with their solo mines.
        let class_key = |p: &MiningParams| -> (u64, bool, u64) {
            let effective = p.segmentation && p.segmentation_error > 0.0;
            (
                p.epsilon.to_bits(),
                effective,
                if effective {
                    p.segmentation_error.to_bits()
                } else {
                    0
                },
            )
        };
        let mut classes: Vec<Miner> = Vec::new();
        let mut class_of: Vec<usize> = Vec::with_capacity(unique.len());
        {
            let mut by_key: HashMap<(u64, bool, u64), usize> = HashMap::new();
            for p in &unique {
                let idx = *by_key.entry(class_key(p)).or_insert_with(|| {
                    classes.push(Miner { params: p.clone() });
                    classes.len() - 1
                });
                class_of.push(idx);
            }
        }

        // Steps (1)+(2): one scheduler batch over class × series.
        let t0 = Instant::now();
        let series: Vec<&miscela_model::TimeSeries> = dataset.iter().map(|ss| ss.series).collect();
        let n_series = series.len();
        let cells = classes.len() * n_series * dataset.timestamp_count();
        let workers = if cells >= PARALLEL_EXTRACTION_CELLS {
            scheduler::available_workers()
        } else {
            1
        };
        let tallies = ExtractionTallies::default();
        let append_bases = dataset.append_bases();
        let items: Vec<(usize, &miscela_model::TimeSeries)> = (0..classes.len())
            .flat_map(|ci| series.iter().map(move |&s| (ci, s)))
            .collect();
        cancel.check()?;
        let flat: Vec<EvolvingSets> =
            scheduler::parallel_map_cancellable(&items, workers, cancel, |&(ci, s)| {
                Ok(classes[ci].extract_series(s, append_bases, extraction_cache, &tallies))
            })?;
        let attributes: Vec<AttributeId> = dataset.iter().map(|ss| ss.sensor.attribute).collect();
        let extraction_time = t0.elapsed();

        // Step (3): one proximity graph per distinct η.
        let t1 = Instant::now();
        let mut graphs: Vec<ProximityGraph> = Vec::new();
        let mut graph_of: Vec<usize> = Vec::with_capacity(unique.len());
        {
            let mut by_eta: HashMap<u64, usize> = HashMap::new();
            for p in &unique {
                let idx = match by_eta.entry(p.eta_km.to_bits()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        cancel.check()?;
                        let idx = graphs.len();
                        graphs.push(ProximityGraph::build(dataset, p.eta_km));
                        e.insert(idx);
                        idx
                    }
                };
                graph_of.push(idx);
            }
        }
        let spatial_time = t1.elapsed();

        // Search groups: distinct points that differ only in ψ and μ. The
        // ψ-variants of one μ share a floor, ψ_min; the μ-variants that share
        // a floor share one search at (ψ_min, μ_max) — the search their μ_max
        // member would have run alone.
        struct SweepGroup {
            /// Representative parameters at the group's ψ_min and μ_max.
            params: MiningParams,
            class: usize,
            graph: usize,
        }
        // Everything step (4) and the delayed extension read, except ψ and μ.
        type SearchKey = (u64, u64, usize, bool, u64, Option<usize>, usize);
        let search_key = |p: &MiningParams| -> SearchKey {
            (
                p.epsilon.to_bits(),
                p.eta_km.to_bits(),
                p.min_attributes,
                p.segmentation,
                p.segmentation_error.to_bits(),
                p.max_sensors,
                p.max_delay,
            )
        };
        let mut psi_floor: HashMap<(SearchKey, usize), usize> = HashMap::new();
        for p in &unique {
            psi_floor
                .entry((search_key(p), p.mu))
                .and_modify(|psi| *psi = (*psi).min(p.psi))
                .or_insert(p.psi);
        }
        let mut groups: Vec<SweepGroup> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(unique.len());
        {
            let mut by_key: HashMap<(SearchKey, usize), usize> = HashMap::new();
            for (ui, p) in unique.iter().enumerate() {
                let key = search_key(p);
                let floor = psi_floor[&(key, p.mu)];
                match by_key.entry((key, floor)) {
                    Entry::Occupied(e) => {
                        let g = &mut groups[*e.get()];
                        g.params.mu = g.params.mu.max(p.mu);
                        group_of.push(*e.get());
                    }
                    Entry::Vacant(e) => {
                        e.insert(groups.len());
                        group_of.push(groups.len());
                        groups.push(SweepGroup {
                            params: MiningParams {
                                psi: floor,
                                ..p.clone()
                            },
                            class: class_of[ui],
                            graph: graph_of[ui],
                        });
                    }
                }
            }
        }

        // Step (4): every group's work units in one globally cost-sorted
        // scheduler batch, each unit tagged with its group so the caps can
        // be routed back.
        cancel.check()?;
        let t2 = Instant::now();
        let ctxs: Vec<SearchContext<'_>> = groups
            .iter()
            .map(|g| SearchContext {
                evolving: &flat[g.class * n_series..(g.class + 1) * n_series],
                attributes: &attributes,
                graph: &graphs[g.graph],
                params: &g.params,
            })
            .collect();
        let mut units: Vec<(usize, usize, WorkUnit<'_>)> = Vec::new();
        for (gi, ctx) in ctxs.iter().enumerate() {
            for comp in ctx.graph.components_at_least(2) {
                if comp.len() >= SPLIT_COMPONENT_SIZE {
                    // The ESU subtree rooted at a seed only explores sensors
                    // beyond it, so cost a seed as the suffix cost of its
                    // (ascending-sorted) component: the lowest seed, which
                    // owns the largest subtree, ranks like the whole
                    // component and starts first.
                    let mut suffix = 0usize;
                    for &seed in comp.iter().rev() {
                        suffix += ctx.graph.degree(seed) + 1;
                        units.push((suffix, gi, WorkUnit::Seed(seed)));
                    }
                } else {
                    units.push((
                        ctx.graph.estimated_search_cost(comp),
                        gi,
                        WorkUnit::Component(comp),
                    ));
                }
            }
        }
        // Largest units first: the expensive subtrees start immediately and
        // the cheap tail backfills idle workers.
        units.sort_by_key(|u| std::cmp::Reverse(u.0));
        let tagged: Vec<(usize, Cap)> = scheduler::run_units_cancellable(
            &units,
            scheduler::available_workers(),
            cancel,
            || (SearchScratch::new(), Vec::new()),
            |&(_, gi, ref unit), (scratch, tmp), out| {
                tmp.clear();
                match *unit {
                    WorkUnit::Component(comp) => {
                        ctxs[gi].search_component_cancellable(comp, scratch, tmp, cancel)?
                    }
                    WorkUnit::Seed(seed) => {
                        ctxs[gi].search_seed_cancellable(seed, scratch, tmp, cancel)?
                    }
                }
                out.extend(tmp.drain(..).map(|c| (gi, c)));
                Ok(())
            },
        )?;
        let mut group_caps: Vec<Vec<Cap>> = (0..groups.len()).map(|_| Vec::new()).collect();
        for (gi, cap) in tagged {
            group_caps[gi].push(cap);
        }
        let search_time = t2.elapsed();

        // Delayed extension once per group at ψ_min.
        let mut group_delayed: Vec<Vec<DelayedCap>> = Vec::with_capacity(groups.len());
        for (gi, g) in groups.iter().enumerate() {
            if g.params.max_delay > 0 {
                cancel.check()?;
                group_delayed.push(mine_delayed(
                    ctxs[gi].evolving,
                    &attributes,
                    &graphs[g.graph],
                    &g.params,
                ));
            } else {
                group_delayed.push(Vec::new());
            }
        }

        // Per-point results: the ψ/μ-filter of the owning group's superset,
        // moved out of the group by its last member instead of cloned. The
        // delayed extension ignores μ, so its pairs filter by ψ alone.
        let mut members_left = vec![0usize; groups.len()];
        for &gi in &group_of {
            members_left[gi] += 1;
        }
        let mut unique_results: Vec<MiningResult> = Vec::with_capacity(unique.len());
        for (ui, p) in unique.iter().enumerate() {
            let gi = group_of[ui];
            let g = &groups[gi];
            members_left[gi] -= 1;
            let last = members_left[gi] == 0;
            let caps = CapSet::from_caps(filter_support(&mut group_caps[gi], last, |c| {
                c.support >= p.psi && c.attributes.len() <= p.mu
            }));
            let delayed = filter_support(&mut group_delayed[gi], last, |d| d.support >= p.psi);
            let class_sets = &flat[g.class * n_series..(g.class + 1) * n_series];
            let graph = &graphs[g.graph];
            let report = MiningReport {
                extraction_time,
                spatial_time,
                search_time,
                evolving_events: class_sets.iter().map(|e| e.total()).sum(),
                proximity_edges: graph.edge_count(),
                searchable_components: graph.components_at_least(2).count(),
                largest_component: graph
                    .components()
                    .iter()
                    .map(|c| c.len())
                    .max()
                    .unwrap_or(0),
                cap_count: caps.len(),
                ..MiningReport::default()
            };
            unique_results.push(MiningResult {
                caps,
                delayed,
                report,
            });
        }
        let results: Vec<MiningResult> = if unique_results.len() == points.len() {
            // No duplicates: point i is unique point i.
            unique_results
        } else {
            point_of
                .iter()
                .map(|&ui| unique_results[ui].clone())
                .collect()
        };
        Ok(SweepOutput {
            results,
            stats: SweepStats {
                requested_points: points.len(),
                unique_points: unique.len(),
                extraction_classes: classes.len(),
                graphs_built: graphs.len(),
                search_groups: groups.len(),
                extraction_cache_hits: tallies.cache_hits.into_inner(),
                extraction_prefix_hits: tallies.prefix_hits.into_inner(),
                extraction_trim_hits: tallies.trim_hits.into_inner(),
                extraction_trim_fallbacks: tallies.trim_fallbacks.into_inner(),
            },
        })
    }

    /// Steps (1)+(2) for one series: the per-series extraction unit of
    /// [`Miner::mine_sweep`].
    ///
    /// With a cache, one rolling-fingerprint pass yields the full-content
    /// key, the checkpoint at every recorded pre-append length, and — when
    /// the series has a trimmed-away front — the origin-anchored
    /// checkpoints at the same positions. The probe order is: full content,
    /// then a content prefix to resume over the appended tail, then an
    /// origin state to derive the trimmed window from. The fresh state is
    /// published under both its content key and its origin-anchored key.
    fn extract_series(
        &self,
        s: &miscela_model::TimeSeries,
        append_bases: &[usize],
        extraction_cache: Option<&dyn EvolvingCache>,
        tallies: &ExtractionTallies,
    ) -> EvolvingSets {
        let Some(cache) = extraction_cache else {
            return extract_with_segmentation(
                s,
                self.params.epsilon,
                self.params.segmentation,
                self.params.segmentation_error,
            );
        };
        let keys = fingerprint_with_checkpoints(s, append_bases);
        let key = ExtractionKey::from_fingerprint(
            keys.fingerprint,
            self.params.epsilon,
            self.params.segmentation,
            self.params.segmentation_error,
        );
        if let Some(sets) = cache.get(&key) {
            tallies.cache_hits.fetch_add(1, Ordering::Relaxed);
            return sets;
        }
        let state = if let Some(prev) = self.lookup_prefix_state(cache, &keys.checkpoints) {
            tallies.prefix_hits.fetch_add(1, Ordering::Relaxed);
            extract_resume(
                s,
                self.params.epsilon,
                self.params.segmentation,
                self.params.segmentation_error,
                &prev,
            )
        } else if let Some(state) = self.lookup_trimmed_state(
            cache,
            s,
            &keys.origin_checkpoints,
            &tallies.trim_hits,
            &tallies.trim_fallbacks,
        ) {
            state
        } else {
            extract_state(
                s,
                self.params.epsilon,
                self.params.segmentation,
                self.params.segmentation_error,
            )
        };
        cache.put_state(key, &state);
        // Also publish under the origin-anchored key (full history, salted
        // domain) so later deeper-trimmed windows of this stream can derive
        // from the state just computed.
        if let Some(&(pos, origin_fp)) = keys.origin_checkpoints.last() {
            debug_assert_eq!(pos, s.len());
            cache.put_state(
                ExtractionKey::from_origin_fingerprint(
                    origin_fp,
                    self.params.epsilon,
                    self.params.segmentation,
                    self.params.segmentation_error,
                ),
                &state,
            );
        }
        state.sets
    }

    /// Probes the extraction cache with prefix-fingerprint checkpoints,
    /// newest first, for a state that can seed a tail-resume.
    fn lookup_prefix_state(
        &self,
        cache: &dyn EvolvingCache,
        checkpoints: &[(usize, u128)],
    ) -> Option<std::sync::Arc<ExtractionState>> {
        for &(len, fingerprint) in checkpoints.iter().rev() {
            let key = ExtractionKey::from_fingerprint(
                fingerprint,
                self.params.epsilon,
                self.params.segmentation,
                self.params.segmentation_error,
            );
            if let Some(state) = cache.get_state(&key) {
                if state.len() == len {
                    return Some(state);
                }
            }
        }
        None
    }

    /// Probes the extraction cache with origin-anchored checkpoints, newest
    /// first, for the state of this series' untrimmed origin and derives the
    /// window state from it ([`derive_trimmed`]). A checkpoint below the
    /// full length yields a prefix state which is then resumed over the
    /// appended tail (the trim-then-append case). Returns `None` on a clean
    /// miss; a found-but-underivable origin counts a fallback and also
    /// returns `None` (the caller extracts cold).
    fn lookup_trimmed_state(
        &self,
        cache: &dyn EvolvingCache,
        series: &miscela_model::TimeSeries,
        origin_checkpoints: &[(usize, u128)],
        trim_hits: &AtomicUsize,
        trim_fallbacks: &AtomicUsize,
    ) -> Option<ExtractionState> {
        let n = series.len();
        for &(p, fingerprint) in origin_checkpoints.iter().rev() {
            let key = ExtractionKey::from_origin_fingerprint(
                fingerprint,
                self.params.epsilon,
                self.params.segmentation,
                self.params.segmentation_error,
            );
            let Some(origin) = cache.get_state(&key) else {
                continue;
            };
            if origin.len() <= p {
                // Equal length means identical content to our prefix — the
                // content-keyed probes already cover that; shorter cannot
                // seed a derivation.
                continue;
            }
            let dropped = origin.len() - p;
            let derived = if p == n {
                derive_trimmed(
                    series,
                    self.params.epsilon,
                    self.params.segmentation,
                    self.params.segmentation_error,
                    &origin,
                    dropped,
                )
            } else {
                let prefix = series.window(0, p);
                derive_trimmed(
                    &prefix,
                    self.params.epsilon,
                    self.params.segmentation,
                    self.params.segmentation_error,
                    &origin,
                    dropped,
                )
                .map(|st| {
                    extract_resume(
                        series,
                        self.params.epsilon,
                        self.params.segmentation,
                        self.params.segmentation_error,
                        &st,
                    )
                })
            };
            return match derived {
                Some(state) => {
                    trim_hits.fetch_add(1, Ordering::Relaxed);
                    Some(state)
                }
                None => {
                    trim_fallbacks.fetch_add(1, Ordering::Relaxed);
                    None
                }
            };
        }
        None
    }
}

/// The fingerprints one rolling pass yields for a series: its full-content
/// key plus the checkpoints the prefix-resume and trim-derivation probes
/// use.
struct SeriesKeys {
    /// Fingerprint of the full window content.
    fingerprint: u128,
    /// Content checkpoints `(window_len, fingerprint)` at each recorded
    /// pre-append length.
    checkpoints: Vec<(usize, u128)>,
    /// Origin-anchored checkpoints `(window_pos, fingerprint)` at each
    /// pre-append length *and* the full length: each fingerprint covers the
    /// trimmed-away front plus the window values up to `window_pos`, i.e. a
    /// prefix of the series' full untrimmed history. These index the salted
    /// [`ExtractionKey::from_origin_fingerprint`] domain.
    origin_checkpoints: Vec<(usize, u128)>,
}

/// One pass over a series' raw values computing the full-content
/// fingerprint together with the rolling checkpoints at each length in
/// `bases` (ascending; lengths at or beyond the series length are ignored,
/// as is the empty prefix). The origin-anchored fingerprinter is seeded
/// from the series' streamed front digest and advanced in the same pass;
/// for a never-trimmed series it coincides with the content fingerprinter
/// and is not run twice.
fn fingerprint_with_checkpoints(series: &miscela_model::TimeSeries, bases: &[usize]) -> SeriesKeys {
    let mut fp = SeriesFingerprinter::new();
    let mut origin: Option<SeriesFingerprinter> =
        (series.dropped_front() > 0).then(|| series.front_digest());
    let mut checkpoints: Vec<(usize, u128)> = Vec::with_capacity(bases.len());
    let mut origin_checkpoints: Vec<(usize, u128)> = Vec::with_capacity(bases.len() + 1);
    let mut bi = 0usize;
    let mut i = 0usize;
    // Stream the shared storage blocks in place — the rolling pass never
    // materializes a contiguous copy of the series.
    for chunk in series.chunks() {
        for &v in chunk {
            if bi < bases.len() {
                while bi < bases.len() && bases[bi] == i {
                    if i > 0 {
                        checkpoints.push((i, fp.checkpoint()));
                        if let Some(ofp) = &origin {
                            origin_checkpoints.push((i, ofp.checkpoint()));
                        }
                    }
                    bi += 1;
                }
            }
            fp.push(v);
            if let Some(ofp) = &mut origin {
                ofp.push(v);
            }
            i += 1;
        }
    }
    let fingerprint = fp.checkpoint();
    match origin {
        Some(ofp) => origin_checkpoints.push((i, ofp.checkpoint())),
        None => {
            // Never trimmed: the origin history *is* the window content, so
            // the content checkpoints double as origin checkpoints.
            origin_checkpoints = checkpoints.clone();
            origin_checkpoints.push((i, fingerprint));
        }
    }
    SeriesKeys {
        fingerprint,
        checkpoints,
        origin_checkpoints,
    }
}

/// Components at or above this many sensors are split into one work unit
/// per ESU seed, so the subtrees of a single giant component can be mined
/// by many workers concurrently. ESU uniqueness makes the per-seed searches
/// independent: their union is exactly the per-component result.
const SPLIT_COMPONENT_SIZE: usize = 32;

/// Minimum dataset size (sensors × timestamps) before the extraction map
/// fans out to threads; below this the per-series work is so small that
/// thread spawn overhead would dominate, so it runs on the caller's thread.
const PARALLEL_EXTRACTION_CELLS: usize = 1 << 16;

/// One claimable unit of CAP-search work.
enum WorkUnit<'c> {
    /// A whole (small) spatially connected component.
    Component(&'c [SensorIndex]),
    /// A single ESU seed of an oversized component.
    Seed(SensorIndex),
}

/// The members of a group's pool that `keep` accepts: moved out of the pool
/// on its `last` use, cloned from it before.
fn filter_support<T: Clone>(pool: &mut Vec<T>, last: bool, keep: impl Fn(&T) -> bool) -> Vec<T> {
    if last {
        std::mem::take(pool)
            .into_iter()
            .filter(|x| keep(x))
            .collect()
    } else {
        pool.iter().filter(|x| keep(x)).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miscela_model::{
        DatasetBuilder, Duration as ModelDuration, GeoPoint, TimeGrid, TimeSeries, Timestamp,
    };

    /// Builds a dataset with `clusters` spatial clusters; within each
    /// cluster, sensors 0 and 1 co-evolve (different attributes) and sensor 2
    /// is uncorrelated noise.
    fn clustered_dataset(clusters: usize, n: usize) -> Dataset {
        coupled_dataset(clusters, 0, n)
    }

    /// [`clustered_dataset`] whose first `coupled` clusters have sensor 2
    /// co-evolve in phase with sensors 0 and 1, so those clusters also hold
    /// a three-attribute CAP (with the same support as every pair): a μ = 2
    /// mine differs from a μ = 3 one.
    fn coupled_dataset(clusters: usize, coupled: usize, n: usize) -> Dataset {
        let mut b = DatasetBuilder::new("clustered");
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        b.set_grid(TimeGrid::new(start, ModelDuration::hours(1), n).unwrap());
        let saw = |amp: f64, period: usize| -> TimeSeries {
            TimeSeries::from_values(
                (0..n)
                    .map(|i| {
                        let phase = i % period;
                        if phase < period / 2 {
                            amp * phase as f64
                        } else {
                            amp * (period - phase) as f64
                        }
                    })
                    .collect(),
            )
        };
        let noise = |seed: usize| -> TimeSeries {
            TimeSeries::from_values(
                (0..n)
                    .map(|i| (((i * 2654435761 + seed * 97) % 13) as f64) * 0.01)
                    .collect(),
            )
        };
        for c in 0..clusters {
            let base_lat = 43.4 + 0.1 * c as f64;
            let temp = b
                .add_sensor(
                    format!("t{c}"),
                    "temperature",
                    GeoPoint::new_unchecked(base_lat, -3.80),
                )
                .unwrap();
            let traffic = b
                .add_sensor(
                    format!("v{c}"),
                    "traffic",
                    GeoPoint::new_unchecked(base_lat + 0.001, -3.80),
                )
                .unwrap();
            let hum = b
                .add_sensor(
                    format!("h{c}"),
                    "humidity",
                    GeoPoint::new_unchecked(base_lat + 0.002, -3.80),
                )
                .unwrap();
            b.set_series(temp, saw(1.0, 12)).unwrap();
            b.set_series(traffic, saw(20.0, 12)).unwrap();
            let humidity = if c < coupled { saw(0.5, 12) } else { noise(c) };
            b.set_series(hum, humidity).unwrap();
        }
        b.build().unwrap()
    }

    fn params() -> MiningParams {
        MiningParams::new()
            .with_epsilon(0.5)
            .with_eta_km(1.0)
            .with_psi(10)
            .with_mu(3)
            .with_segmentation(false)
    }

    /// The sequential reference pipeline the byte-identity oracles compare
    /// against: cold per-series extraction, one proximity graph, a
    /// per-component search at the point's own ψ and the delayed extension
    /// when `max_delay > 0` — no cache, no scheduler, no grid planning.
    fn sequential_reference(ds: &Dataset, p: &MiningParams) -> MiningResult {
        let evolving: Vec<EvolvingSets> = ds
            .iter()
            .map(|ss| {
                extract_with_segmentation(
                    ss.series,
                    p.epsilon,
                    p.segmentation,
                    p.segmentation_error,
                )
            })
            .collect();
        let attributes: Vec<AttributeId> = ds.iter().map(|ss| ss.sensor.attribute).collect();
        let graph = ProximityGraph::build(ds, p.eta_km);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: p,
        };
        let mut caps = Vec::new();
        for comp in graph.components_at_least(2) {
            caps.extend(ctx.search_component(comp));
        }
        let caps = CapSet::from_caps(caps);
        let delayed = if p.max_delay > 0 {
            mine_delayed(&evolving, &attributes, &graph, p)
        } else {
            Vec::new()
        };
        let report = MiningReport {
            evolving_events: evolving.iter().map(|e| e.total()).sum(),
            proximity_edges: graph.edge_count(),
            searchable_components: graph.components_at_least(2).count(),
            largest_component: graph
                .components()
                .iter()
                .map(|c| c.len())
                .max()
                .unwrap_or(0),
            cap_count: caps.len(),
            ..MiningReport::default()
        };
        MiningResult {
            caps,
            delayed,
            report,
        }
    }

    #[test]
    fn rejects_invalid_params_and_tiny_datasets() {
        assert!(Miner::new(MiningParams::new().with_psi(0)).is_err());
        let miner = Miner::new(params()).unwrap();
        let mut b = DatasetBuilder::new("tiny");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, ModelDuration::hours(1), 1).unwrap());
        b.add_sensor("s", "temperature", GeoPoint::new_unchecked(0.0, 0.0))
            .unwrap();
        let ds = b.build().unwrap();
        assert!(matches!(
            miner.mine(&ds),
            Err(MiningError::DatasetTooSmall(1))
        ));
    }

    #[test]
    fn finds_planted_caps_per_cluster() {
        let ds = clustered_dataset(3, 240);
        let miner = Miner::new(params()).unwrap();
        let result = miner.mine(&ds).unwrap();
        // Each cluster contributes (at least) the temperature/traffic pair.
        assert!(result.caps.len() >= 3, "found {}", result.caps.summary());
        let temp = ds.attributes().id_of("temperature").unwrap();
        let traffic = ds.attributes().id_of("traffic").unwrap();
        let pairs = result.caps.with_attributes(&[temp, traffic]);
        assert!(pairs.len() >= 3);
        // The humidity noise sensors never co-evolve strongly enough.
        let hum = ds.attributes().id_of("humidity").unwrap();
        assert_eq!(result.caps.with_attribute(hum).count(), 0);
        // Report is filled in.
        assert_eq!(result.report.cap_count, result.caps.len());
        assert_eq!(result.report.searchable_components, 3);
        assert_eq!(result.report.largest_component, 3);
        assert!(result.report.proximity_edges >= 3);
        assert!(result.report.evolving_events > 0);
        assert!(result.report.total_time() >= result.report.search_time);
        // No delayed patterns requested.
        assert!(result.delayed.is_empty());
    }

    #[test]
    fn delayed_patterns_returned_when_requested() {
        let ds = clustered_dataset(1, 240);
        let miner = Miner::new(params().with_max_delay(2).with_psi(5)).unwrap();
        let result = miner.mine(&ds).unwrap();
        assert!(!result.delayed.is_empty());
        // The simultaneous temperature/traffic pair should be among them with
        // delay 0.
        assert!(result.delayed.iter().any(|d| d.is_simultaneous()));
    }

    #[test]
    fn segmentation_reduces_or_preserves_cap_count_on_noisy_data() {
        // Noisy sensors: without segmentation the noise creates spurious
        // co-evolution; with segmentation the count must not increase.
        let n = 300;
        let mut b = DatasetBuilder::new("noisy");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, ModelDuration::hours(1), n).unwrap());
        let noisy = |seed: u64| -> TimeSeries {
            let mut state = seed;
            TimeSeries::from_values(
                (0..n)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let noise = ((state >> 33) % 100) as f64 / 100.0 - 0.5;
                        (i as f64 * 0.01) + noise
                    })
                    .collect(),
            )
        };
        for (i, attr) in ["temperature", "traffic", "light", "humidity"]
            .iter()
            .enumerate()
        {
            let idx = b
                .add_sensor(
                    format!("s{i}"),
                    attr,
                    GeoPoint::new_unchecked(43.46 + 0.0005 * i as f64, -3.80),
                )
                .unwrap();
            b.set_series(idx, noisy(i as u64 + 1)).unwrap();
        }
        let ds = b.build().unwrap();
        let base = params().with_epsilon(0.3).with_psi(5);
        let without = Miner::new(base.clone().with_segmentation(false))
            .unwrap()
            .mine(&ds)
            .unwrap();
        let with = Miner::new(base.with_segmentation(true).with_segmentation_error(0.05))
            .unwrap()
            .mine(&ds)
            .unwrap();
        assert!(
            with.caps.len() <= without.caps.len(),
            "segmentation increased CAPs: {} -> {}",
            without.caps.len(),
            with.caps.len()
        );
    }

    #[test]
    fn work_stealing_split_matches_sequential_on_giant_component() {
        // One 60-sensor chain component — above SPLIT_COMPONENT_SIZE, so the
        // scheduler decomposes it into per-seed work units. The result must
        // be identical to the sequential per-component search, and stable
        // across runs regardless of thread timing. The fixture is shared
        // with the `search_scaling` bench so both exercise the same shape.
        let ds = miscela_datagen::chain_component(60, 240);
        let p = params().with_psi(20).with_max_sensors(Some(3));
        let miner = Miner::new(p.clone()).unwrap();
        let result = miner.mine(&ds).unwrap();
        assert_eq!(result.report.searchable_components, 1);
        assert!(
            result.report.largest_component >= SPLIT_COMPONENT_SIZE,
            "fixture must exercise the per-seed split path"
        );
        assert!(!result.caps.is_empty());
        // Deterministic across runs.
        assert_eq!(miner.mine(&ds).unwrap().caps, result.caps);
        // Identical to the sequential per-component search.
        assert_eq!(sequential_reference(&ds, &p).caps, result.caps);
    }

    #[test]
    fn mine_with_cache_is_equivalent_and_reports_hits() {
        use crate::evolving::EvolvingCache;
        use std::collections::HashMap;
        use std::sync::Mutex;

        #[derive(Default)]
        struct MapCache(Mutex<HashMap<ExtractionKey, EvolvingSets>>);
        impl EvolvingCache for MapCache {
            fn get(&self, key: &ExtractionKey) -> Option<EvolvingSets> {
                self.0.lock().unwrap().get(key).cloned()
            }
            fn put(&self, key: ExtractionKey, sets: &EvolvingSets) {
                self.0.lock().unwrap().insert(key, sets.clone());
            }
        }

        let ds = clustered_dataset(2, 240);
        let cache = MapCache::default();
        let miner = Miner::new(params().with_segmentation(true)).unwrap();
        let cold = miner.mine_with_cache(&ds, Some(&cache)).unwrap();
        // Content-keyed lookups dedupe even within one run: the two
        // clusters share identical temperature and traffic waveforms, so
        // the second cluster's copies hit the entries the first just put.
        assert_eq!(cold.report.extraction_cache_hits, 2);
        let warm = miner.mine_with_cache(&ds, Some(&cache)).unwrap();
        assert_eq!(warm.report.extraction_cache_hits, ds.sensor_count());
        let uncached = miner.mine(&ds).unwrap();
        assert_eq!(uncached.report.extraction_cache_hits, 0);
        assert_eq!(cold.caps, uncached.caps);
        assert_eq!(warm.caps, uncached.caps);
        // A search-side parameter tweak reuses every cached extraction.
        let tweaked = Miner::new(params().with_segmentation(true).with_psi(5))
            .unwrap()
            .mine_with_cache(&ds, Some(&cache))
            .unwrap();
        assert_eq!(tweaked.report.extraction_cache_hits, ds.sensor_count());
    }

    /// A minimal state-retaining extraction cache for the append/trim
    /// equivalence tests.
    #[derive(Default)]
    struct StateCache(std::sync::Mutex<std::collections::HashMap<ExtractionKey, ExtractionState>>);

    impl crate::evolving::EvolvingCache for StateCache {
        fn get(&self, key: &ExtractionKey) -> Option<EvolvingSets> {
            self.0.lock().unwrap().get(key).map(|s| s.sets.clone())
        }
        fn put(&self, key: ExtractionKey, sets: &EvolvingSets) {
            self.0.lock().unwrap().insert(
                key,
                ExtractionState {
                    sets: sets.clone(),
                    segmentation: None,
                },
            );
        }
        fn get_state(&self, key: &ExtractionKey) -> Option<std::sync::Arc<ExtractionState>> {
            self.0
                .lock()
                .unwrap()
                .get(key)
                .cloned()
                .map(std::sync::Arc::new)
        }
        fn put_state(&self, key: ExtractionKey, state: &ExtractionState) {
            self.0.lock().unwrap().insert(key, state.clone());
        }
    }

    #[test]
    fn append_resume_mines_identical_caps_and_reports_prefix_hits() {
        use miscela_model::AppendRow;

        // The clustered fixture's series are pure functions of the index,
        // so the 200-timestamp build is exactly the prefix of the
        // 240-timestamp build — appending the tail rows must reproduce the
        // full dataset's content.
        let full = clustered_dataset(2, 240);
        let mut appended = clustered_dataset(2, 200);
        let mut rows: Vec<AppendRow> = Vec::new();
        for ss in full.iter() {
            let attribute = full.attributes().name_of(ss.sensor.attribute).to_string();
            for i in 200..240 {
                if let Some(v) = ss.series.get(i) {
                    rows.push(AppendRow {
                        sensor: ss.sensor.id.clone(),
                        attribute: attribute.clone(),
                        time: full.grid().at(i).unwrap(),
                        value: Some(v),
                    });
                }
            }
        }
        let stats = appended.append_rows(&rows).unwrap();
        assert_eq!(stats.new_timestamps, 40);
        assert_eq!(appended.append_bases(), &[200]);

        for p in [
            params(),
            params()
                .with_segmentation(true)
                .with_segmentation_error(0.05),
        ] {
            let cache = StateCache::default();
            let miner = Miner::new(p).unwrap();
            let before = miner
                .mine_with_cache(&clustered_dataset(2, 200), Some(&cache))
                .unwrap();
            assert_eq!(before.report.extraction_prefix_hits, 0);
            let warm = miner.mine_with_cache(&appended, Some(&cache)).unwrap();
            // Clusters share the temperature/traffic waveforms, so the
            // second cluster's copies hit the full-content entries the
            // first cluster just stored; every other sensor resumes from
            // its own prefix state.
            assert_eq!(
                warm.report.extraction_cache_hits + warm.report.extraction_prefix_hits,
                appended.sensor_count()
            );
            assert!(warm.report.extraction_prefix_hits >= 4);
            // Equivalence oracle: identical CAPs to a cold full mine of
            // the equivalent cold-built dataset.
            let cold = miner.mine(&full).unwrap();
            assert_eq!(warm.caps, cold.caps);
            assert_eq!(miner.mine(&appended).unwrap().caps, cold.caps);
            // Re-mining the appended dataset is now a pure content hit.
            let again = miner.mine_with_cache(&appended, Some(&cache)).unwrap();
            assert_eq!(again.report.extraction_cache_hits, appended.sensor_count());
            assert_eq!(again.caps, cold.caps);
        }
    }

    #[test]
    fn append_trim_interleavings_mine_identical_to_cold_window() {
        use miscela_model::{AppendRow, RetentionPolicy, SERIES_BLOCK_LEN};

        // Source waveform long enough to feed every append; the working
        // dataset streams through a window of it under appends and
        // block-granular trims. After every operation, mining the shared
        // (trimmed, resumed) storage with a warm cache must be
        // byte-identical to cold-mining a freshly re-chunked copy of the
        // retained window.
        let source = clustered_dataset(2, 3 * SERIES_BLOCK_LEN + 200);
        let append_rows = |from_abs: usize, to_abs: usize| -> Vec<AppendRow> {
            let mut rows = Vec::new();
            for ss in source.iter() {
                let attribute = source.attributes().name_of(ss.sensor.attribute).to_string();
                for abs in from_abs..to_abs {
                    rows.push(AppendRow {
                        sensor: ss.sensor.id.clone(),
                        attribute: attribute.clone(),
                        time: source.grid().at(abs).expect("abs on source grid"),
                        value: ss.series.get(abs),
                    });
                }
            }
            rows
        };

        for p in [
            params(),
            params()
                .with_segmentation(true)
                .with_segmentation_error(0.05),
        ] {
            let miner = Miner::new(p).unwrap();
            let cache = StateCache::default();
            let mut ds = source
                .slice_time(
                    source.grid().start(),
                    source.grid().at(SERIES_BLOCK_LEN + 60).unwrap(),
                )
                .unwrap();
            miner.mine_with_cache(&ds, Some(&cache)).unwrap();

            // (append k) and (trim keep_last w) interleavings; windows are
            // chosen so trims actually drop blocks.
            let ops: [(bool, usize); 6] = [
                (true, 40),
                (false, SERIES_BLOCK_LEN + 20),
                (true, 30),
                (true, SERIES_BLOCK_LEN),
                (false, SERIES_BLOCK_LEN / 2),
                (true, 12),
            ];
            for &(is_append, k) in &ops {
                let trimmed_before = ds.trimmed();
                if is_append {
                    let from = ds.trimmed() + ds.timestamp_count();
                    let rows = append_rows(from, from + k);
                    ds.append_rows(&rows).unwrap();
                } else {
                    ds.set_retention(RetentionPolicy::keep_last(k));
                    ds.trim_expired();
                    ds.set_retention(RetentionPolicy::unbounded());
                }
                let warm = miner.mine_with_cache(&ds, Some(&cache)).unwrap();
                // The fixture's value ranges recur in every retained
                // window, so the trim derivation must never fall back to a
                // cold re-extraction...
                assert_eq!(
                    warm.report.extraction_trim_fallbacks, 0,
                    "append={is_append} k={k} fell back"
                );
                // ...and a window whose front was actually dropped must be
                // served by it (block-granular retention may leave a small
                // keep-target untrimmed).
                if ds.trimmed() > trimmed_before {
                    assert!(
                        warm.report.extraction_trim_hits > 0,
                        "trim to {k} derived no extraction from origin states"
                    );
                }
                // Cold twin: the same retained window, re-chunked from
                // zero with no lineage and no cache.
                let twin = ds
                    .slice_time(ds.grid().start(), ds.grid().range().end)
                    .unwrap();
                assert_eq!(twin.timestamp_count(), ds.timestamp_count());
                let cold = miner.mine(&twin).unwrap();
                assert_eq!(
                    warm.caps, cold.caps,
                    "append={is_append} k={k} diverged from the cold window"
                );
                // The cache-less path over the shared storage agrees too.
                assert_eq!(miner.mine(&ds).unwrap().caps, cold.caps);
            }

            // Trim *and* append between two mines: the origin probe lands on
            // a pre-append checkpoint, derives the prefix state, and resumes
            // it over the appended tail. Grow the window past a block
            // boundary first so the trim has a sealed block to drop.
            let from = ds.trimmed() + ds.timestamp_count();
            ds.append_rows(&append_rows(from, from + SERIES_BLOCK_LEN))
                .unwrap();
            miner.mine_with_cache(&ds, Some(&cache)).unwrap();
            let trimmed_before = ds.trimmed();
            ds.set_retention(RetentionPolicy::keep_last(SERIES_BLOCK_LEN / 2));
            ds.trim_expired();
            ds.set_retention(RetentionPolicy::unbounded());
            assert!(
                ds.trimmed() > trimmed_before,
                "combined scenario must actually drop a block"
            );
            let from = ds.trimmed() + ds.timestamp_count();
            ds.append_rows(&append_rows(from, from + 25)).unwrap();
            let warm = miner.mine_with_cache(&ds, Some(&cache)).unwrap();
            assert_eq!(warm.report.extraction_trim_fallbacks, 0);
            assert!(
                warm.report.extraction_trim_hits > 0,
                "combined trim+append derived no extraction from origin states"
            );
            let twin = ds
                .slice_time(ds.grid().start(), ds.grid().range().end)
                .unwrap();
            assert_eq!(warm.caps, miner.mine(&twin).unwrap().caps);
        }
    }

    #[test]
    fn cancelled_and_expired_mines_return_typed_errors() {
        let ds = clustered_dataset(2, 240);
        let miner = Miner::new(params()).unwrap();
        let cache = StateCache::default();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            miner
                .mine_cancellable(&ds, Some(&cache), &token)
                .unwrap_err(),
            MiningError::Cancelled
        );
        let expired = CancelToken::new().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(
            miner.mine_cancellable(&ds, None, &expired).unwrap_err(),
            MiningError::DeadlineExceeded
        );
    }

    #[test]
    fn mine_cancelled_mid_extraction_leaves_cache_consistent() {
        use crate::evolving::EvolvingCache;

        // A cache wrapper that fires the cancel token from inside the N-th
        // extraction-state put: the mine deterministically aborts at the next
        // unit boundary with the cache only partially populated.
        struct CancellingCache {
            inner: StateCache,
            token: CancelToken,
            cancel_after: usize,
            puts: AtomicUsize,
        }
        impl EvolvingCache for CancellingCache {
            fn get(&self, key: &ExtractionKey) -> Option<EvolvingSets> {
                self.inner.get(key)
            }
            fn put(&self, key: ExtractionKey, sets: &EvolvingSets) {
                self.inner.put(key, sets)
            }
            fn get_state(&self, key: &ExtractionKey) -> Option<std::sync::Arc<ExtractionState>> {
                self.inner.get_state(key)
            }
            fn put_state(&self, key: ExtractionKey, state: &ExtractionState) {
                if self.puts.fetch_add(1, Ordering::Relaxed) + 1 == self.cancel_after {
                    self.token.cancel();
                }
                self.inner.put_state(key, state);
            }
        }

        let ds = clustered_dataset(2, 240);
        let miner = Miner::new(params()).unwrap();
        let baseline = miner.mine(&ds).unwrap();
        let token = CancelToken::new();
        let cache = CancellingCache {
            inner: StateCache::default(),
            token: token.clone(),
            cancel_after: 2,
            puts: AtomicUsize::new(0),
        };
        assert_eq!(
            miner
                .mine_cancellable(&ds, Some(&cache), &token)
                .unwrap_err(),
            MiningError::Cancelled
        );
        // The abort left some extraction states behind; they are keyed by
        // content + parameters, so the identical retry over the same cache
        // must reproduce the cold-mine CAPs exactly.
        assert!(cache.inner.0.lock().unwrap().len() >= 2);
        let retry = miner
            .mine_cancellable(&ds, Some(&cache), &CancelToken::never())
            .unwrap();
        assert_eq!(retry.caps, baseline.caps);
    }

    #[test]
    fn sweep_matches_independent_mines_and_shares_work() {
        // Cluster 0 holds a three-attribute CAP, so the μ = 2 points below
        // differ from their μ = 3 siblings and the group's μ-filter bites.
        let ds = coupled_dataset(3, 1, 240);
        let grid: Vec<MiningParams> = vec![
            params().with_psi(5),
            params().with_psi(30),
            params().with_psi(5).with_eta_km(5.0),
            params().with_psi(30).with_eta_km(5.0),
            params().with_psi(5).with_mu(2),
            params().with_psi(30).with_mu(2),
            params().with_psi(30), // duplicate of an earlier point
            // Every fixture CAP has support 120: ψ = 120 keeps them all and
            // ψ = 121 none, so these two points make the group's ψ-filter
            // bite at its boundary.
            params().with_psi(120),
            params().with_psi(121),
            params().with_psi(5).with_max_delay(2),
            params().with_psi(30).with_max_delay(2),
            params()
                .with_psi(5)
                .with_segmentation(true)
                .with_segmentation_error(0.05),
        ];
        let out = Miner::mine_sweep(&ds, &grid, None, &CancelToken::never()).unwrap();
        assert_eq!(out.results.len(), grid.len());
        // Byte-identity oracle: every grid point against the sequential
        // reference — including points whose search ran at a lower group ψ
        // — and so is the one-point sweep behind a solo mine.
        for (p, r) in grid.iter().zip(&out.results) {
            let reference = sequential_reference(&ds, p);
            assert_eq!(
                r.caps,
                reference.caps,
                "sweep diverged for {}",
                p.signature()
            );
            assert_eq!(
                r.delayed,
                reference.delayed,
                "delayed diverged for {}",
                p.signature()
            );
            assert_eq!(r.report.cap_count, reference.report.cap_count);
            assert_eq!(r.report.proximity_edges, reference.report.proximity_edges);
            assert_eq!(r.report.evolving_events, reference.report.evolving_events);
            assert_eq!(
                r.report.searchable_components,
                reference.report.searchable_components
            );
            assert_eq!(
                r.report.largest_component,
                reference.report.largest_component
            );
            let solo = Miner::new(p.clone()).unwrap().mine(&ds).unwrap();
            assert_eq!(solo.caps, reference.caps);
            assert_eq!(solo.delayed, reference.delayed);
        }
        // The planner shared what the grid permits.
        assert_eq!(out.stats.requested_points, grid.len());
        assert_eq!(out.stats.unique_points, grid.len() - 1);
        assert_eq!(out.stats.extraction_classes, 2); // ε shared; one seg class
        assert_eq!(out.stats.graphs_built, 2); // η ∈ {1.0, 5.0}

        // Groups: base {ψ5,ψ30,ψ120,ψ121} merged with μ2 {ψ5,ψ30} (same
        // ψ_min), η5 {ψ5,ψ30}, delay {ψ5,ψ30}, seg {ψ5}.
        assert_eq!(out.stats.search_groups, 4);
        // ψ-monotonicity is visible inside one group, and so is the
        // μ-filter: cluster 0's three-attribute CAP is cut at μ = 2.
        assert!(out.results[0].caps.len() >= out.results[1].caps.len());
        assert_eq!(out.results[4].caps.len() + 1, out.results[0].caps.len());
        assert!(out.results[0]
            .caps
            .caps()
            .iter()
            .any(|c| c.attribute_count() == 3));

        // μ-variants whose minimum ψ differs stay separate searches: μ3
        // {ψ5,ψ30} and μ2 {ψ30}.
        let grid = vec![
            params().with_psi(5),
            params().with_psi(30),
            params().with_psi(30).with_mu(2),
        ];
        let out = Miner::mine_sweep(&ds, &grid, None, &CancelToken::never()).unwrap();
        assert_eq!(out.stats.search_groups, 2);
        for (p, r) in grid.iter().zip(&out.results) {
            assert_eq!(r.caps, sequential_reference(&ds, p).caps);
        }
        assert!(out.results[2].caps.len() < out.results[1].caps.len());
    }

    #[test]
    fn sweep_uses_and_populates_the_extraction_cache() {
        let ds = clustered_dataset(2, 240);
        let grid = vec![params().with_psi(5), params().with_psi(30)];
        let miner = Miner::new(params()).unwrap();

        // A solo mine's cache entries serve the whole sweep class.
        let cache = StateCache::default();
        miner.mine_with_cache(&ds, Some(&cache)).unwrap();
        let out = Miner::mine_sweep(&ds, &grid, Some(&cache), &CancelToken::never()).unwrap();
        assert_eq!(out.stats.extraction_cache_hits, ds.sensor_count());
        for (p, r) in grid.iter().zip(&out.results) {
            let reference = sequential_reference(&ds, p);
            assert_eq!(r.caps, reference.caps);
            assert_eq!(r.delayed, reference.delayed);
        }

        // A cold sweep leaves the cache warm for a follow-up solo mine; the
        // clusters' duplicate waveforms already hit within the run.
        let cache2 = StateCache::default();
        let out2 = Miner::mine_sweep(&ds, &grid, Some(&cache2), &CancelToken::never()).unwrap();
        assert_eq!(out2.stats.extraction_cache_hits, 2);
        let warm = miner.mine_with_cache(&ds, Some(&cache2)).unwrap();
        assert_eq!(warm.report.extraction_cache_hits, ds.sensor_count());
    }

    #[test]
    fn sweep_validates_rejects_and_handles_empty_grids() {
        let ds = clustered_dataset(1, 240);
        let out = Miner::mine_sweep(&ds, &[], None, &CancelToken::never()).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats, SweepStats::default());
        // One invalid point fails the whole job before any work is done.
        assert!(matches!(
            Miner::mine_sweep(
                &ds,
                &[params(), params().with_psi(0)],
                None,
                &CancelToken::never()
            ),
            Err(MiningError::InvalidParameter { .. })
        ));
        // Tiny datasets are rejected like in the solo path.
        let mut b = DatasetBuilder::new("tiny");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, ModelDuration::hours(1), 1).unwrap());
        b.add_sensor("s", "temperature", GeoPoint::new_unchecked(0.0, 0.0))
            .unwrap();
        let tiny = b.build().unwrap();
        assert!(matches!(
            Miner::mine_sweep(&tiny, &[params()], None, &CancelToken::never()),
            Err(MiningError::DatasetTooSmall(1))
        ));
        // A pre-cancelled token aborts before any unit runs.
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            Miner::mine_sweep(&ds, &[params()], None, &token).unwrap_err(),
            MiningError::Cancelled
        );
    }

    #[test]
    fn sweep_cancelled_mid_extraction_leaves_cache_consistent() {
        use crate::evolving::EvolvingCache;

        // Fires the cancel token from inside the N-th extraction-state put,
        // mirroring the solo-mine cancellation test: the sweep aborts at the
        // next unit boundary with the cache only partially populated.
        struct CancellingCache {
            inner: StateCache,
            token: CancelToken,
            cancel_after: usize,
            puts: AtomicUsize,
        }
        impl EvolvingCache for CancellingCache {
            fn get(&self, key: &ExtractionKey) -> Option<EvolvingSets> {
                self.inner.get(key)
            }
            fn put(&self, key: ExtractionKey, sets: &EvolvingSets) {
                self.inner.put(key, sets)
            }
            fn get_state(&self, key: &ExtractionKey) -> Option<std::sync::Arc<ExtractionState>> {
                self.inner.get_state(key)
            }
            fn put_state(&self, key: ExtractionKey, state: &ExtractionState) {
                if self.puts.fetch_add(1, Ordering::Relaxed) + 1 == self.cancel_after {
                    self.token.cancel();
                }
                self.inner.put_state(key, state);
            }
        }

        let ds = clustered_dataset(2, 240);
        let grid = vec![
            params().with_psi(5),
            params().with_psi(30),
            params().with_psi(5).with_epsilon(0.25),
        ];
        let token = CancelToken::new();
        let cache = CancellingCache {
            inner: StateCache::default(),
            token: token.clone(),
            cancel_after: 7, // inside the second extraction class
            puts: AtomicUsize::new(0),
        };
        assert_eq!(
            Miner::mine_sweep(&ds, &grid, Some(&cache), &token).unwrap_err(),
            MiningError::Cancelled
        );
        // The abort left content-keyed states behind; the identical retry
        // over the same cache must match the sequential reference exactly.
        assert!(cache.inner.0.lock().unwrap().len() >= 2);
        let retry = Miner::mine_sweep(&ds, &grid, Some(&cache), &CancelToken::never()).unwrap();
        for (p, r) in grid.iter().zip(&retry.results) {
            assert_eq!(r.caps, sequential_reference(&ds, p).caps);
        }
    }

    #[test]
    fn psi_and_eta_monotonicity_end_to_end() {
        let ds = clustered_dataset(2, 240);
        let count = |p: MiningParams| Miner::new(p).unwrap().mine(&ds).unwrap().caps.len();
        // Smaller psi => at least as many CAPs (Section 2.1).
        assert!(count(params().with_psi(5)) >= count(params().with_psi(30)));
        // Larger eta => at least as many CAPs.
        assert!(count(params().with_eta_km(5.0)) >= count(params().with_eta_km(0.05)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// `mine_sweep` over random grids — duplicated, unsorted points
        /// mixing every parameter axis — matches the per-point sequential
        /// reference exactly, both cold and again warm over the cache the
        /// cold sweep populated.
        #[test]
        fn sweep_equivalence_on_random_grids(
            specs in proptest::collection::vec(
                (0usize..4, 0usize..3, 0usize..2, 0usize..2, 0usize..2),
                1..7,
            ),
        ) {
            // The fixture's CAPs all have support 60, so ψ = 60 and 61 sit
            // on either side of the ψ-filter's boundary; its first cluster
            // holds a three-attribute CAP, so μ = 2 and μ = 3 differ.
            let psis = [3usize, 20, 60, 61];
            let etas = [0.05f64, 1.0, 5.0];
            let ds = coupled_dataset(2, 1, 120);
            let grid: Vec<MiningParams> = specs
                .iter()
                .map(|&(pi, ei, mi, si, di)| {
                    let p = params()
                        .with_psi(psis[pi])
                        .with_eta_km(etas[ei])
                        .with_mu([2, 3][mi])
                        .with_max_delay([0, 2][di]);
                    if si == 1 {
                        p.with_segmentation(true).with_segmentation_error(0.05)
                    } else {
                        p
                    }
                })
                .collect();
            let solos: Vec<MiningResult> = grid
                .iter()
                .map(|p| sequential_reference(&ds, p))
                .collect();
            let cache = StateCache::default();
            for pass in 0..2 {
                let out =
                    Miner::mine_sweep(&ds, &grid, Some(&cache), &CancelToken::never()).unwrap();
                assert_eq!(out.results.len(), grid.len());
                for ((p, solo), r) in grid.iter().zip(&solos).zip(&out.results) {
                    assert_eq!(
                        r.caps,
                        solo.caps,
                        "pass {pass} diverged for {}",
                        p.signature()
                    );
                    assert_eq!(r.delayed, solo.delayed);
                }
                if pass == 1 {
                    // The cold pass left one content entry per class ×
                    // series; the warm pass must be served entirely from
                    // them.
                    assert_eq!(
                        out.stats.extraction_cache_hits,
                        out.stats.extraction_classes * ds.sensor_count()
                    );
                }
            }
        }
    }
}
