//! [`Run`]: what an experiment writes into. It never touches stdout or
//! the filesystem; the `ecg-bench` runner decides where its text, side
//! documents and metrics land. Collecting metrics leaves the text
//! byte-identical.

use ecg_obs::Obs;
use std::fmt::{self, Write};

/// One experiment's output in the making.
#[derive(Debug, Default)]
pub struct Run {
    text: String,
    /// The merged bundle and the open one [`Run::obs`] hands out, when
    /// the run collects metrics.
    obs: Option<(Obs, Obs)>,
    documents: Vec<(&'static str, String)>,
}

impl Run {
    /// An empty run, collecting metrics when `collect_metrics` is set.
    pub fn new(collect_metrics: bool) -> Run {
        Run {
            obs: collect_metrics.then(|| (Obs::new(), Obs::new())),
            ..Run::default()
        }
    }

    /// Appends `text` and a newline: the run's `println!`, taking a
    /// string or `format_args!(..)`.
    pub fn line(&mut self, text: impl fmt::Display) {
        writeln!(self.text, "{text}").expect("formatting into a String cannot fail");
    }

    /// The bundle for the experiment's serial work, when collecting. It
    /// is merged in ahead of the next [`Run::cells`] sweep and at the end.
    pub fn obs(&mut self) -> Option<&mut Obs> {
        self.obs.as_mut().map(|(_, open)| open)
    }

    /// Maps `f` over `items` with [`ecg_par::par_map`], handing each cell
    /// a fresh bundle (`None` when not collecting) and absorbing the
    /// bundles in input order, so the merged document does not depend on
    /// scheduling. Results come back in input order.
    pub fn cells<T, R, F>(&mut self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T, &mut Option<Obs>) -> R + Sync,
    {
        let collect = self.obs.is_some();
        let pairs = ecg_par::par_map(items, |item| {
            let mut obs = collect.then(Obs::new);
            (f(item, &mut obs), obs)
        });
        self.absorb_open();
        let mut results = Vec::with_capacity(pairs.len());
        for (result, cell) in pairs {
            if let (Some((merged, _)), Some(cell)) = (&mut self.obs, cell) {
                merged.merge(&cell);
            }
            results.push(result);
        }
        results
    }

    /// Hands over a side document, written as `name` next to the text,
    /// and notes it in the text as `{what} written to results/{name}`.
    pub fn document(&mut self, what: &str, name: &'static str, contents: String) {
        self.line(format_args!("\n{what} written to results/{name}"));
        self.documents.push((name, contents));
    }

    /// Closes the run into its files, named as goldens: `<name>.txt` (the
    /// text), the side documents, and `metrics_<name>.json` (the merged
    /// bundle as canonical JSON) when the run collects metrics.
    pub fn finish(mut self, name: &str) -> Vec<(String, String)> {
        self.absorb_open();
        let documents = self.documents.into_iter();
        let metrics = self.obs.map(|(merged, _)| merged.to_json() + "\n");
        std::iter::once((format!("{name}.txt"), self.text))
            .chain(documents.map(|(doc, contents)| (doc.to_owned(), contents)))
            .chain(metrics.map(|doc| (format!("metrics_{name}.json"), doc)))
            .collect()
    }

    fn absorb_open(&mut self) {
        if let Some((merged, open)) = &mut self.obs {
            merged.merge(&std::mem::take(open));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_without_metrics_collects_nothing() {
        let mut run = Run::new(false);
        assert!(run.obs().is_none());
        let cells = run.cells(vec![1, 2], |i, obs| {
            assert!(obs.is_none());
            i * 10
        });
        assert_eq!(cells, [10, 20]);
        run.line(format_args!("x = {}", 3));
        run.document("a side", "side.json", "{}".into());
        let files = run.finish("t");
        let text = "x = 3\n\na side written to results/side.json\n";
        assert_eq!(
            files,
            [
                ("t.txt".to_string(), text.to_string()),
                ("side.json".to_string(), "{}".to_string())
            ]
        );
    }

    #[test]
    fn bundles_merge_serial_work_first_then_cells_in_input_order() {
        let mut run = Run::new(true);
        if let Some(obs) = run.obs() {
            obs.trace.push(0.0, "test", "serial", vec![]);
            obs.metrics.inc("runs");
        }
        let items: Vec<f64> = (1..=20).map(f64::from).collect();
        run.cells(items, |t, obs| {
            let obs = obs.as_mut().expect("a collecting run hands out bundles");
            obs.trace.push(t, "test", "cell", vec![]);
            obs.metrics.inc("runs");
        });
        let files = run.finish("t");
        assert_eq!(files[1].0, "metrics_t.json");
        let metrics = &files[1].1;
        let doc = ecg_obs::json::parse(metrics).expect("canonical JSON");
        let events = doc
            .get("trace")
            .and_then(|t| t.get("events"))
            .and_then(|e| e.as_arr())
            .expect("trace events");
        let times: Vec<f64> = events
            .iter()
            .filter_map(|e| e.get("t").and_then(|t| t.as_f64()))
            .collect();
        let expected: Vec<f64> = (0..=20).map(f64::from).collect();
        assert_eq!(times, expected);
        let runs = doc
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("runs"))
            .and_then(|r| r.as_f64());
        assert_eq!(runs, Some(21.0));
        assert!(metrics.ends_with("}\n"));
    }
}
