//! Nested phase spans accumulated into a deterministic timing tree.
//!
//! Spans never read a clock: "work" is whatever deterministic unit the
//! instrumented code hands in (simulated milliseconds, K-means
//! iterations, probes sent). Two identical seeded runs therefore build
//! identical trees.

use crate::json::JsonWriter;

/// One node of the phase tree: a named phase with call count,
/// accumulated work, and child phases.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseNode {
    name: String,
    calls: u64,
    work: f64,
    children: Vec<PhaseNode>,
}

impl PhaseNode {
    fn new(name: &str) -> Self {
        PhaseNode {
            name: name.to_owned(),
            calls: 0,
            work: 0.0,
            children: Vec::new(),
        }
    }

    /// The phase name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many times this phase was entered.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Total work accumulated in this phase (excluding children).
    pub fn work(&self) -> f64 {
        self.work
    }

    /// Child phases, in first-entered order.
    pub fn children(&self) -> &[PhaseNode] {
        &self.children
    }

    fn find_or_create(children: &mut Vec<PhaseNode>, name: &str) -> usize {
        if let Some(idx) = children.iter().position(|c| c.name == name) {
            return idx;
        }
        children.push(PhaseNode::new(name));
        children.len() - 1
    }

    fn merge_into(&mut self, other: &PhaseNode) {
        self.calls += other.calls;
        self.work += other.work;
        for child in &other.children {
            let idx = PhaseNode::find_or_create(&mut self.children, &child.name);
            self.children[idx].merge_into(child);
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("name").str(&self.name);
            w.key("calls").u64(self.calls);
            w.key("work").f64(self.work);
            w.key("children").array(|w| {
                for child in &self.children {
                    child.write_json(w);
                }
            });
        });
    }
}

/// Records nested phase spans into a tree of [`PhaseNode`]s.
///
/// Entering the same phase name twice under the same parent reuses the
/// node (calls increment, work accumulates), so loops produce one node
/// per phase, not one per iteration.
///
/// # Examples
///
/// ```
/// use ecg_obs::PhaseRecorder;
///
/// let mut rec = PhaseRecorder::new();
/// for iter in 0..3 {
///     let mut span = rec.span("kmeans.iter");
///     span.add_work(1.0);
///     let _ = iter;
/// }
/// assert_eq!(rec.roots()[0].calls(), 3);
/// assert_eq!(rec.roots()[0].work(), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseRecorder {
    roots: Vec<PhaseNode>,
    /// Path of child indices from `roots` down to the open span.
    stack: Vec<usize>,
}

impl PhaseRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        PhaseRecorder::default()
    }

    /// Top-level phases, in first-entered order.
    pub fn roots(&self) -> &[PhaseNode] {
        &self.roots
    }

    /// Opens the phase `name` under the currently open span (or at the
    /// root) and returns a guard that closes it on drop.
    pub fn span(&mut self, name: &str) -> SpanGuard<'_> {
        self.enter(name);
        SpanGuard { rec: self }
    }

    fn enter(&mut self, name: &str) {
        let children = match self.current_mut() {
            Some(node) => &mut node.children,
            None => &mut self.roots,
        };
        let idx = PhaseNode::find_or_create(children, name);
        children[idx].calls += 1;
        self.stack.push(idx);
    }

    fn exit(&mut self) {
        self.stack.pop().expect("exit without matching enter");
    }

    /// Adds `work` units to the currently open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open or `work` is not finite.
    fn add_work(&mut self, work: f64) {
        assert!(work.is_finite(), "span work must be finite, got {work}");
        let node = self.current_mut().expect("add_work outside any span");
        node.work += work;
    }

    fn current_mut(&mut self) -> Option<&mut PhaseNode> {
        let mut path = self.stack.iter();
        let first = *path.next()?;
        let mut node = &mut self.roots[first];
        for &idx in path {
            node = &mut node.children[idx];
        }
        Some(node)
    }

    /// Merges another recorder's tree into this one, matching phases by
    /// name at each level.
    pub fn merge(&mut self, other: &PhaseRecorder) {
        for root in &other.roots {
            let idx = PhaseNode::find_or_create(&mut self.roots, &root.name);
            self.roots[idx].merge_into(root);
        }
    }

    /// Appends the tree as a JSON array of nodes.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.array(|w| {
            for root in &self.roots {
                root.write_json(w);
            }
        });
    }
}

/// RAII guard for an open phase span; closes the span on drop.
///
/// Create with [`PhaseRecorder::span`]; nest with [`SpanGuard::child`].
#[derive(Debug)]
pub struct SpanGuard<'a> {
    rec: &'a mut PhaseRecorder,
}

impl SpanGuard<'_> {
    /// Adds `work` units to this span.
    ///
    /// # Panics
    ///
    /// Panics if `work` is not finite.
    pub fn add_work(&mut self, work: f64) {
        self.rec.add_work(work);
    }

    /// Opens a nested span under this one. While the child guard is
    /// alive the parent guard is mutably borrowed, so spans always
    /// close innermost-first.
    pub fn child(&mut self, name: &str) -> SpanGuard<'_> {
        self.rec.span(name)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_a_tree_and_repeats_reuse_nodes() {
        let mut rec = PhaseRecorder::new();
        for _ in 0..2 {
            let mut outer = rec.span("outer");
            outer.add_work(1.0);
            {
                let mut a = outer.child("a");
                a.add_work(10.0);
            }
            {
                let mut b = outer.child("b");
                b.add_work(100.0);
                let mut deep = b.child("deep");
                deep.add_work(0.5);
            }
        }
        let roots = rec.roots();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(
            (outer.name(), outer.calls(), outer.work()),
            ("outer", 2, 2.0)
        );
        assert_eq!(outer.children().len(), 2);
        let a = &outer.children()[0];
        let b = &outer.children()[1];
        assert_eq!((a.name(), a.calls(), a.work()), ("a", 2, 20.0));
        assert_eq!((b.name(), b.calls(), b.work()), ("b", 2, 200.0));
        assert_eq!(b.children()[0].work(), 1.0);
    }

    #[test]
    fn guards_close_in_reverse_order_of_creation() {
        let mut rec = PhaseRecorder::new();
        {
            let mut outer = rec.span("outer");
            let _inner = outer.child("inner");
            // inner drops first (end of scope), then outer.
        }
        // A new root-level span proves the stack fully unwound.
        {
            let mut top = rec.span("top");
            top.add_work(1.0);
        }
        assert_eq!(rec.roots().len(), 2);
        assert_eq!(rec.roots()[1].name(), "top");
    }

    #[test]
    fn merge_matches_by_name_recursively() {
        let build = |w: f64| {
            let mut rec = PhaseRecorder::new();
            let mut outer = rec.span("outer");
            outer.add_work(w);
            let mut inner = outer.child("inner");
            inner.add_work(2.0 * w);
            drop(inner);
            drop(outer);
            rec
        };
        let mut a = build(1.0);
        a.merge(&build(10.0));
        assert_eq!(a.roots().len(), 1);
        assert_eq!(a.roots()[0].work(), 11.0);
        assert_eq!(a.roots()[0].children()[0].work(), 22.0);
        assert_eq!(a.roots()[0].children()[0].calls(), 2);
    }

    #[test]
    fn json_shape() {
        let mut rec = PhaseRecorder::new();
        {
            let mut s = rec.span("p");
            s.add_work(1.5);
        }
        let mut w = JsonWriter::new();
        rec.write_json(&mut w);
        assert_eq!(
            w.finish(),
            "[{\"name\":\"p\",\"calls\":1,\"work\":1.5,\"children\":[]}]"
        );
    }
}
