//! A registry of named counters, gauges, histograms and summaries.
//!
//! All metrics are registered once at construction (allocating their
//! storage and names); after that every update — [`MetricsRegistry::inc`],
//! [`MetricsRegistry::add`], [`MetricsRegistry::set`],
//! [`MetricsRegistry::observe`], [`MetricsRegistry::merge_summary`] — is
//! an indexed store with no heap traffic, and
//! [`MetricsRegistry::snapshot_into`] copies the scalar metrics into a
//! reusable [`MetricsSnapshot`] without allocating once the snapshot
//! buffers are warm.
//!
//! Snapshots deliberately carry **counters, gauges and summaries only**:
//! the histograms hold wall-clock latencies, which would leak
//! nondeterminism into anything derived from a snapshot (fleet
//! aggregation, flight-recorder dumps).

use crate::summary::{StreamSummary, SUMMARY_BUCKETS};
use odrl_metrics::Histogram;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Handle to a registered streaming summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryId(usize);

/// Named counters/gauges/histograms/summaries with fixed-at-construction
/// layout.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
    summaries: Vec<(String, StreamSummary)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a monotonically increasing counter (construction time).
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge (construction time).
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a histogram over `[lo, hi)` with `bins` equal bins
    /// (construction time).
    ///
    /// # Errors
    ///
    /// Propagates [`Histogram::new`]'s layout validation.
    pub fn histogram(
        &mut self,
        name: &str,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Result<HistogramId, String> {
        let h = Histogram::new(lo, hi, bins)?;
        self.histograms.push((name.to_string(), h));
        Ok(HistogramId(self.histograms.len() - 1))
    }

    /// Registers a streaming summary (construction time).
    pub fn summary(&mut self, name: &str) -> SummaryId {
        self.summaries
            .push((name.to_string(), StreamSummary::new()));
        SummaryId(self.summaries.len() - 1)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Records a sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].1.record(value);
    }

    /// Records a sample into a streaming summary.
    #[inline]
    pub fn record_summary(&mut self, id: SummaryId, value: f64) {
        self.summaries[id.0].1.record(value);
    }

    /// Folds a pre-accumulated summary into a registered one (exact merge
    /// — see [`StreamSummary::merge`]).
    #[inline]
    pub fn merge_summary(&mut self, id: SummaryId, s: &StreamSummary) {
        self.summaries[id.0].1.merge(s);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Iterates `(name, value)` over all counters.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterates `(name, value)` over all gauges.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterates `(name, histogram)` over all histograms.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Iterates `(name, summary)` over all streaming summaries.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, &StreamSummary)> {
        self.summaries.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Looks a counter up by name (diagnostics/tests; O(metrics)).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Copies every counter, gauge and summary into `snap`. The first call
    /// sizes the snapshot's buffers and copies the metric names; every
    /// later call with the same registry layout is allocation-free.
    pub fn snapshot_into(&self, epoch: u64, snap: &mut MetricsSnapshot) {
        snap.epoch = epoch;
        snap.counters.resize(self.counters.len(), 0);
        snap.gauges.resize(self.gauges.len(), 0.0);
        snap.summaries
            .resize(self.summaries.len(), StreamSummary::new());
        if snap.counter_names.len() != self.counters.len()
            || snap.gauge_names.len() != self.gauges.len()
            || snap.summary_names.len() != self.summaries.len()
        {
            snap.counter_names = self.counters.iter().map(|(n, _)| n.clone()).collect();
            snap.gauge_names = self.gauges.iter().map(|(n, _)| n.clone()).collect();
            snap.summary_names = self.summaries.iter().map(|(n, _)| n.clone()).collect();
        }
        for (dst, (_, v)) in snap.counters.iter_mut().zip(&self.counters) {
            *dst = *v;
        }
        for (dst, (_, v)) in snap.gauges.iter_mut().zip(&self.gauges) {
            *dst = *v;
        }
        for (dst, (_, s)) in snap.summaries.iter_mut().zip(&self.summaries) {
            *dst = *s;
        }
    }

    /// Renders every metric as `name,value` CSV lines; histograms are
    /// summarized as `count`, `p50`, `p99`. Export-time only (allocates).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (n, v) in self.counters() {
            out.push_str(&format!("{n},{v}\n"));
        }
        for (n, v) in self.gauges() {
            out.push_str(&format!("{n},{v}\n"));
        }
        for (n, h) in self.histograms() {
            out.push_str(&format!("{n}_count,{}\n", h.count()));
            for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
                if h.count() > 0 {
                    out.push_str(&format!("{n}_{label},{}\n", h.quantile(q)));
                }
            }
        }
        for (n, s) in self.summaries() {
            out.push_str(&format!("{n}_count,{}\n", s.count()));
            if s.count() > 0 {
                out.push_str(&format!("{n}_mean,{}\n", s.mean()));
                out.push_str(&format!("{n}_max,{}\n", s.max()));
            }
        }
        out
    }
}

/// A point-in-time copy of a registry's scalar metrics (counters, gauges,
/// summaries — never histograms, which hold wall-clock samples), reusable
/// across epochs without reallocating.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Epoch the snapshot was taken at.
    pub epoch: u64,
    /// Counter values, in registration order.
    pub counters: Vec<u64>,
    /// Gauge values, in registration order.
    pub gauges: Vec<f64>,
    /// Streaming summaries, in registration order.
    pub summaries: Vec<StreamSummary>,
    /// Counter names, copied once when the snapshot is first sized.
    pub counter_names: Vec<String>,
    /// Gauge names, copied once when the snapshot is first sized.
    pub gauge_names: Vec<String>,
    /// Summary names, copied once when the snapshot is first sized.
    pub summary_names: Vec<String>,
}

impl MetricsSnapshot {
    /// An empty snapshot (sized on first [`MetricsRegistry::snapshot_into`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Value of a counter by name (diagnostics/tests; O(metrics)).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        let i = self.counter_names.iter().position(|n| n == name)?;
        self.counters.get(i).copied()
    }

    /// Value of a gauge by name (diagnostics/tests; O(metrics)).
    pub fn gauge_by_name(&self, name: &str) -> Option<f64> {
        let i = self.gauge_names.iter().position(|n| n == name)?;
        self.gauges.get(i).copied()
    }

    /// A summary by name (diagnostics/tests; O(metrics)).
    pub fn summary_by_name(&self, name: &str) -> Option<&StreamSummary> {
        let i = self.summary_names.iter().position(|n| n == name)?;
        self.summaries.get(i)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Counters and gauges become ordinary `# TYPE`-annotated sample
    /// lines. Each summary becomes a block of untyped derived samples
    /// (`_count`, `_mean`, `_stddev`, `_min`, `_max`) preceded by one
    /// `# odrl_summary` comment carrying the exact integer state, so
    /// [`MetricsSnapshot::from_prometheus`] reconstructs the snapshot bit
    /// for bit (Prometheus itself ignores unknown comments). `f64` values
    /// print through `Display`, which round-trips exactly.
    ///
    /// Export-time only (allocates); see
    /// [`MetricsSnapshot::write_prometheus`] for the allocation-free form.
    pub fn to_prometheus(&self) -> String {
        let mut out = Vec::new();
        self.write_prometheus(&mut out)
            .expect("write to Vec cannot fail");
        String::from_utf8(out).expect("metric names are UTF-8")
    }

    /// Writes [`MetricsSnapshot::to_prometheus`]'s text onto `out`.
    /// Allocation-free into a `Vec<u8>` with enough capacity (the
    /// flight recorder renders every dump into a buffer of exactly its
    /// size).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, if any.
    pub fn write_prometheus<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        writeln!(out, "# odrl_snapshot epoch {}", self.epoch)?;
        for (name, v) in self.counter_names.iter().zip(&self.counters) {
            writeln!(out, "# TYPE {name} counter")?;
            writeln!(out, "{name} {v}")?;
        }
        for (name, v) in self.gauge_names.iter().zip(&self.gauges) {
            writeln!(out, "# TYPE {name} gauge")?;
            writeln!(out, "{name} {v}")?;
        }
        for (name, s) in self.summary_names.iter().zip(&self.summaries) {
            let (count, sum_q, sum_sq_q, min, max, buckets) = s.raw_parts();
            write!(
                out,
                "# odrl_summary {name} {count} {sum_q} {sum_sq_q} {min} {max}"
            )?;
            for b in buckets {
                write!(out, " {b}")?;
            }
            writeln!(out)?;
            writeln!(out, "{name}_count {count}")?;
            writeln!(out, "{name}_mean {}", s.mean())?;
            writeln!(out, "{name}_stddev {}", s.std_dev())?;
            writeln!(out, "{name}_min {}", s.min())?;
            writeln!(out, "{name}_max {}", s.max())?;
        }
        Ok(())
    }

    /// Parses [`MetricsSnapshot::to_prometheus`] output back into a
    /// snapshot — an exact inverse, including summary state. Sample lines
    /// are accepted only for the metric named by the preceding `# TYPE`
    /// header, so the untyped summary-derived samples are skipped.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_prometheus(text: &str) -> Result<Self, String> {
        fn parse<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
            tok.ok_or_else(|| format!("missing {what}"))?
                .parse()
                .map_err(|_| format!("malformed {what}"))
        }
        let mut snap = MetricsSnapshot::new();
        // (name, is_counter) of the last `# TYPE` header seen.
        let mut expect: Option<(String, bool)> = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let mut tok = rest.split_whitespace();
                match tok.next() {
                    Some("odrl_snapshot") if tok.next() == Some("epoch") => {
                        snap.epoch = parse(tok.next(), "epoch")?;
                    }
                    Some("odrl_snapshot") => {}
                    Some("TYPE") => {
                        let name = parse::<String>(tok.next(), "metric name")?;
                        let kind = parse::<String>(tok.next(), "metric kind")?;
                        expect = Some((name, kind == "counter"));
                    }
                    Some("odrl_summary") => {
                        let name = parse::<String>(tok.next(), "summary name")?;
                        let count = parse(tok.next(), "summary count")?;
                        let sum_q = parse(tok.next(), "summary sum")?;
                        let sum_sq_q = parse(tok.next(), "summary sum_sq")?;
                        let min = parse(tok.next(), "summary min")?;
                        let max = parse(tok.next(), "summary max")?;
                        let mut buckets = [0u64; SUMMARY_BUCKETS];
                        for b in &mut buckets {
                            *b = parse(tok.next(), "summary bucket")?;
                        }
                        snap.summary_names.push(name);
                        snap.summaries.push(StreamSummary::from_raw_parts(
                            count, sum_q, sum_sq_q, min, max, buckets,
                        ));
                    }
                    _ => {}
                }
                continue;
            }
            let mut tok = line.split_whitespace();
            let (name, value) = (tok.next().unwrap_or(""), tok.next());
            if let Some((expected, is_counter)) = expect.take() {
                if name == expected {
                    if is_counter {
                        snap.counter_names.push(expected);
                        snap.counters.push(parse(value, "counter value")?);
                    } else {
                        snap.gauge_names.push(expected);
                        snap.gauges.push(parse(value, "gauge value")?);
                    }
                    continue;
                }
                // Header without its sample: drop the expectation.
            }
            // Untyped lines (summary-derived samples) are ignored.
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_update_in_place() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("flips");
        let g = reg.gauge("scale");
        reg.inc(c);
        reg.add(c, 4);
        reg.set(g, 1.25);
        assert_eq!(reg.counter_value(c), 5);
        assert_eq!(reg.gauges().next(), Some(("scale", 1.25)));
        assert_eq!(reg.counter_by_name("flips"), Some(5));
        assert_eq!(reg.counter_by_name("missing"), None);
    }

    #[test]
    fn histograms_record_and_summarize() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("latency", 0.0, 100.0, 10).unwrap();
        for v in [5.0, 15.0, 15.0, 95.0] {
            reg.observe(h, v);
        }
        assert_eq!(reg.histograms().next().unwrap().1.count(), 4);
        let csv = reg.to_csv();
        assert!(csv.contains("latency_count,4"));
        assert!(reg.histogram("bad", 10.0, 0.0, 4).is_err());
    }

    #[test]
    fn snapshot_reuses_buffers() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("a");
        let g = reg.gauge("b");
        let mut snap = MetricsSnapshot::new();
        reg.snapshot_into(0, &mut snap);
        let cap_c = snap.counters.capacity();
        let cap_g = snap.gauges.capacity();
        reg.inc(c);
        reg.set(g, 2.0);
        for epoch in 1..50 {
            reg.snapshot_into(epoch, &mut snap);
        }
        assert_eq!(snap.epoch, 49);
        assert_eq!(snap.counters, vec![1]);
        assert_eq!(snap.gauges, vec![2.0]);
        assert_eq!(snap.counters.capacity(), cap_c);
        assert_eq!(snap.gauges.capacity(), cap_g);
        assert_eq!(snap.counter_names, vec!["a".to_string()]);
        assert_eq!(snap.gauge_names, vec!["b".to_string()]);
        assert_eq!(snap.counter_by_name("a"), Some(1));
        assert_eq!(snap.gauge_by_name("b"), Some(2.0));
        assert_eq!(snap.counter_by_name("missing"), None);
    }

    #[test]
    fn summaries_register_record_and_snapshot() {
        let mut reg = MetricsRegistry::new();
        let s = reg.summary("td_error");
        reg.record_summary(s, 0.5);
        reg.record_summary(s, -1.5);
        let mut pre = StreamSummary::new();
        pre.record(2.0);
        reg.merge_summary(s, &pre);
        assert_eq!(reg.summaries().next().unwrap().1.count(), 3);
        let mut snap = MetricsSnapshot::new();
        reg.snapshot_into(7, &mut snap);
        assert_eq!(snap.summary_names, vec!["td_error".to_string()]);
        assert_eq!(snap.summary_by_name("td_error").unwrap().count(), 3);
        let csv = reg.to_csv();
        assert!(csv.contains("td_error_count,3"));
    }

    #[test]
    fn prometheus_round_trips_exactly() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("overshoot_onsets");
        let g = reg.gauge("budget_loss_rate");
        let s = reg.summary("rl_td_error");
        reg.add(c, 17);
        reg.set(g, 0.125);
        for x in [0.25, -3.5, 11.0, 1e-7, -0.0625] {
            reg.record_summary(s, x);
        }
        let mut snap = MetricsSnapshot::new();
        reg.snapshot_into(42, &mut snap);
        let text = snap.to_prometheus();
        // Prometheus-shaped body: TYPE headers plus derived summary lines.
        assert!(text.contains("# TYPE overshoot_onsets counter"));
        assert!(text.contains("overshoot_onsets 17"));
        assert!(text.contains("# TYPE budget_loss_rate gauge"));
        assert!(text.contains("budget_loss_rate 0.125"));
        assert!(text.contains("rl_td_error_count 5"));
        assert!(text.contains("rl_td_error_mean "));
        // Exact inverse: full snapshot equality, then text fixpoint.
        let back = MetricsSnapshot::from_prometheus(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_prometheus(), text);
        // An empty summary (infinite sentinels) survives the trip too.
        let mut reg2 = MetricsRegistry::new();
        reg2.summary("empty");
        let mut snap2 = MetricsSnapshot::new();
        reg2.snapshot_into(0, &mut snap2);
        let back2 = MetricsSnapshot::from_prometheus(&snap2.to_prometheus()).unwrap();
        assert_eq!(back2, snap2);
        // Malformed input is rejected, not mis-parsed.
        assert!(MetricsSnapshot::from_prometheus("# TYPE x counter\nx notanumber\n").is_err());
    }
}
