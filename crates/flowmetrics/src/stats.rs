//! One stats list per node: every entry declared once, rendered three
//! ways.
//!
//! A node builds one [`Stats`] per scrape. Each entry is one value with
//! an optional stats key (the plaintext `key value` page and
//! `/stats.json`) and an optional Prometheus series (name, help, kind,
//! labels). [`Stats::render_text`] and [`Stats::render_json`] render the
//! keyed entries in declaration order; [`Stats::publish`] sets every
//! series in a [`Registry`]. A counter added to the list therefore shows
//! up on every page it belongs to, and is named nowhere else.

use crate::expo::{render_kv_json, render_kv_text, KvValue};
use crate::{Kind, Registry};

/// The Prometheus side of an [`Entry`].
#[derive(Debug)]
struct Series {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    labels: Vec<(&'static str, String)>,
}

/// One entry of a [`Stats`] list; chain [`Entry::counter`] or
/// [`Entry::gauge`] to also expose it as a series.
#[derive(Debug)]
pub struct Entry {
    key: Option<String>,
    value: KvValue,
    series: Option<Series>,
}

impl Entry {
    /// Exposes the entry as a Prometheus counter.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> &mut Entry {
        self.series(name, help, Kind::Counter)
    }

    /// Exposes the entry as a Prometheus gauge.
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> &mut Entry {
        self.series(name, help, Kind::Gauge)
    }

    /// Adds a label to the entry's series (call after `counter` or
    /// `gauge`).
    pub fn label(&mut self, name: &'static str, value: impl Into<String>) -> &mut Entry {
        let series = self.series.as_mut().expect("label needs a series");
        series.labels.push((name, value.into()));
        self
    }

    fn series(&mut self, name: &'static str, help: &'static str, kind: Kind) -> &mut Entry {
        assert!(
            !matches!(self.value, KvValue::Str(_) | KvValue::F64(_)),
            "series {name} needs an integer or boolean value"
        );
        self.series = Some(Series {
            name,
            help,
            kind,
            labels: Vec::new(),
        });
        self
    }
}

/// A node's stats as one ordered list of entries (see the module docs).
#[derive(Debug, Default)]
pub struct Stats {
    entries: Vec<Entry>,
}

impl Stats {
    /// An empty list.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Appends an entry shown under `key` on the stats pages.
    pub fn kv(&mut self, key: impl Into<String>, value: impl Into<KvValue>) -> &mut Entry {
        self.push(Some(key.into()), value.into())
    }

    /// Appends an entry with no stats key: it only exists as the series
    /// its `counter` or `gauge` call declares.
    pub fn metric(&mut self, value: impl Into<KvValue>) -> &mut Entry {
        self.push(None, value.into())
    }

    fn push(&mut self, key: Option<String>, value: KvValue) -> &mut Entry {
        self.entries.push(Entry {
            key,
            value,
            series: None,
        });
        self.entries.last_mut().expect("just pushed")
    }

    fn pairs(&self) -> impl Iterator<Item = (&str, &KvValue)> {
        self.entries
            .iter()
            .filter_map(|e| Some((e.key.as_deref()?, &e.value)))
    }

    /// The plaintext page: one `key value` line per keyed entry.
    pub fn render_text(&self) -> String {
        render_kv_text(self.pairs())
    }

    /// The keyed entries as one flat JSON object, in order.
    pub fn render_json(&self) -> String {
        render_kv_json(self.pairs())
    }

    /// Sets every series in `registry` (registering it on first use).
    /// Booleans publish as 0/1.
    pub fn publish(&self, registry: &Registry) {
        for e in &self.entries {
            let Some(s) = &e.series else { continue };
            let labels: Vec<(&str, &str)> =
                s.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let n = match e.value {
                KvValue::U64(n) => n as i64,
                KvValue::I64(n) => n,
                KvValue::Bool(b) => i64::from(b),
                KvValue::F64(_) | KvValue::Str(_) => unreachable!("checked in Entry::series"),
            };
            match s.kind {
                Kind::Counter => registry.counter_with(s.name, s.help, &labels).set(n as u64),
                _ => registry.gauge_with(s.name, s.help, &labels).set(n),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_rendering_carries_exactly_its_entries() {
        let mut s = Stats::new();
        s.kv("frames", 7u64)
            .counter("flowtree_frames_total", "Frames.");
        s.metric(3u64).counter("flowtree_acks_total", "Acks.");
        for lane in 0..2u64 {
            s.kv(format!("lane{lane}_records"), 10 + lane)
                .counter("flowtree_lane_records_total", "Records per lane.")
                .label("lane", lane.to_string());
        }
        s.kv("mode", "delta");
        s.kv("connected", true)
            .gauge("flowtree_connected", "Connected.");

        let text = "frames 7\nlane0_records 10\nlane1_records 11\nmode delta\nconnected true\n";
        assert_eq!(s.render_text(), text);
        assert_eq!(
            s.render_json(),
            "{\n  \"frames\": 7,\n  \"lane0_records\": 10,\n  \"lane1_records\": 11,\n  \
             \"mode\": \"delta\",\n  \"connected\": true\n}\n"
        );

        let reg = Registry::new();
        s.publish(&reg);
        let series: Vec<String> = reg
            .render_prometheus()
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(String::from)
            .collect();
        assert_eq!(
            series,
            [
                "flowtree_frames_total 7",
                "flowtree_acks_total 3",
                "flowtree_lane_records_total{lane=\"0\"} 10",
                "flowtree_lane_records_total{lane=\"1\"} 11",
                "flowtree_connected 1",
            ]
        );
    }
}
