//! The CopyCat workspace: a dynamic, spreadsheet-like grid with tabs.
//!
//! §2.1: in integration mode "the SCP system will create a tabbed pane in
//! its GUI for each data source … The moment the user pastes or accepts a
//! row or column from a different source … the query's output receives
//! its own tabbed pane." Rows and columns carry suggestion state
//! (highlighted rows in Figure 1, the yellow Zip column in Figure 2),
//! which this headless model tracks explicitly.
//!
//! A [`Tab`] is the one home of its pane's state: besides the grid it
//! carries the integration query its rows came from and the §5
//! transform columns whose edits re-teach a program. Cloning the
//! [`Workspace`] therefore captures every tab whole, which is what undo
//! restores and what a tab switch selects.

use copycat_graph::NodeId;
use copycat_provenance::Provenance;
use copycat_query::{Field, Plan};
use copycat_transform::Program;
use copycat_util::hash::FxHashMap;
use std::fmt;

/// Where a row came from — drives both rendering and feedback routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowState {
    /// Pasted by the user (always kept).
    Pasted,
    /// Proposed by an auto-completion, awaiting feedback.
    Suggested,
    /// A suggestion the user accepted.
    Accepted,
}

/// One workspace row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Cell texts, aligned with the tab's columns.
    pub cells: Vec<String>,
    /// Suggestion state.
    pub state: RowState,
    /// Provenance, when the row came from a query or wrapper.
    pub provenance: Option<Provenance>,
}

/// A transform column's learned program plus its accumulated examples.
pub(crate) type TransformState = (Program, Vec<(Vec<String>, String)>);

/// One tabbed pane: a titled grid.
#[derive(Debug, Clone, Default)]
pub struct Tab {
    /// Tab title (source name or query name).
    pub title: String,
    /// Column headers with semantic types.
    pub columns: Vec<Field>,
    /// Which columns were named by the user (vs. system-proposed).
    pub user_named: Vec<bool>,
    /// The rows.
    pub rows: Vec<Row>,
    /// The integration query this tab shows, with the graph nodes it
    /// covers; `None` while the tab is still importing a source.
    pub(crate) query: Option<(Plan, Vec<NodeId>)>,
    /// Columns created by an accepted transform, by column index.
    pub(crate) transforms: FxHashMap<usize, TransformState>,
}

impl Tab {
    /// A new empty tab.
    pub fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), ..Self::default() }
    }

    /// Ensure at least `n` columns exist (named `Col1`, `Col2`, … until
    /// renamed by the system or the user).
    pub fn ensure_columns(&mut self, n: usize) {
        while self.columns.len() < n {
            let name = format!("Col{}", self.columns.len() + 1);
            self.columns.push(Field::new(name));
            self.user_named.push(false);
        }
        for row in &mut self.rows {
            row.cells.resize(self.columns.len(), String::new());
        }
    }

    /// Paste a row of values (user action).
    pub fn paste_row(&mut self, values: &[String]) {
        self.ensure_columns(values.len());
        let mut cells = values.to_vec();
        cells.resize(self.columns.len(), String::new());
        self.rows.push(Row { cells, state: RowState::Pasted, provenance: None });
    }

    /// Add suggested rows (system action). Rows equal to an existing
    /// pasted/accepted row are skipped.
    pub fn suggest_rows(&mut self, rows: Vec<(Vec<String>, Option<Provenance>)>) {
        self.ensure_columns(rows.iter().map(|(r, _)| r.len()).max().unwrap_or(0));
        for (values, provenance) in rows {
            let mut cells = values;
            cells.resize(self.columns.len(), String::new());
            let dup = self
                .rows
                .iter()
                .any(|r| r.cells == cells && r.state != RowState::Suggested);
            if !dup {
                self.rows.push(Row { cells, state: RowState::Suggested, provenance });
            }
        }
    }

    /// Drop all currently-suggested rows (before re-suggesting).
    pub fn clear_suggestions(&mut self) {
        self.rows.retain(|r| r.state != RowState::Suggested);
    }

    /// Accept every suggested row.
    pub fn accept_all_suggestions(&mut self) -> usize {
        let mut n = 0;
        for r in &mut self.rows {
            if r.state == RowState::Suggested {
                r.state = RowState::Accepted;
                n += 1;
            }
        }
        n
    }

    /// Reject (remove) one suggested row by index, returning its cells.
    pub fn reject_row(&mut self, i: usize) -> Option<Vec<String>> {
        match self.rows.get(i) {
            Some(r) if r.state == RowState::Suggested => {
                let cells = r.cells.clone();
                self.rows.remove(i);
                Some(cells)
            }
            _ => None,
        }
    }

    /// Set a column's header (user action: "the user manually enters the
    /// label", §2.1).
    pub fn name_column(&mut self, col: usize, name: impl Into<String>) -> bool {
        if let Some(f) = self.columns.get_mut(col) {
            f.name = name.into();
            self.user_named[col] = true;
            true
        } else {
            false
        }
    }

    /// System-proposed column label + semantic type; never overwrites a
    /// user-chosen name.
    pub fn propose_column(&mut self, col: usize, name: &str, sem_type: Option<&str>) {
        if let Some(f) = self.columns.get_mut(col) {
            if !self.user_named[col] {
                f.name = name.to_string();
            }
            if let Some(t) = sem_type {
                f.sem_type = Some(t.to_string());
            }
        }
    }

    /// Append a column with values aligned to the current rows (accepting
    /// a column auto-completion).
    pub fn add_column(&mut self, field: Field, values: &[String]) {
        self.columns.push(field);
        self.user_named.push(false);
        for (i, row) in self.rows.iter_mut().enumerate() {
            row.cells.push(values.get(i).cloned().unwrap_or_default());
        }
    }

    /// The non-suggested rows' cells (the "committed" table).
    pub fn committed_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .filter(|r| r.state != RowState::Suggested)
            .map(|r| r.cells.clone())
            .collect()
    }

    /// The user-pasted rows only (the learner's examples).
    pub fn pasted_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .filter(|r| r.state == RowState::Pasted)
            .map(|r| r.cells.clone())
            .collect()
    }

    /// All rows' cells regardless of state.
    pub fn all_rows(&self) -> Vec<Vec<String>> {
        self.rows.iter().map(|r| r.cells.clone()).collect()
    }

    /// ASCII rendering with suggestion markers — the headless stand-in
    /// for Figures 1 and 2.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name.len()).collect();
        for row in &self.rows {
            for (i, c) in row.cells.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("=== {} ===\n", self.title));
        let mut header = String::from("   ");
        for (i, c) in self.columns.iter().enumerate() {
            let label = match &c.sem_type {
                Some(t) => format!("{} [{t}]", c.name),
                None => c.name.clone(),
            };
            header.push_str(&format!("{:<w$}  ", label, w = widths[i].max(label.len())));
            widths[i] = widths[i].max(label.len());
        }
        out.push_str(header.trim_end());
        out.push('\n');
        for row in &self.rows {
            let marker = match row.state {
                RowState::Pasted => "   ",
                RowState::Suggested => " ? ",
                RowState::Accepted => " + ",
            };
            out.push_str(marker);
            for (i, c) in row.cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }
}

/// The tabbed workspace.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    tabs: Vec<Tab>,
    active: usize,
}

impl Workspace {
    /// A workspace with one empty tab.
    pub fn new() -> Self {
        Self { tabs: vec![Tab::new("Sheet1")], active: 0 }
    }

    /// The active tab.
    pub fn active(&self) -> &Tab {
        &self.tabs[self.active]
    }

    /// The active tab, mutably.
    pub fn active_mut(&mut self) -> &mut Tab {
        &mut self.tabs[self.active]
    }

    /// All tabs.
    pub fn tabs(&self) -> &[Tab] {
        &self.tabs
    }

    /// Add a tab and switch to it; returns its index.
    pub fn add_tab(&mut self, tab: Tab) -> usize {
        self.tabs.push(tab);
        self.active = self.tabs.len() - 1;
        self.active
    }

    /// Switch the active tab. False on bad index.
    pub fn switch_to(&mut self, i: usize) -> bool {
        if i < self.tabs.len() {
            self.active = i;
            true
        } else {
            false
        }
    }

    /// Index of the active tab.
    pub fn active_index(&self) -> usize {
        self.active
    }
}

impl fmt::Display for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tabs.iter().enumerate() {
            let star = if i == self.active { "*" } else { " " };
            writeln!(f, "{star}[{i}] {}", t.title)?;
        }
        write!(f, "{}", self.active().render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paste_grows_columns() {
        let mut t = Tab::new("t");
        t.paste_row(&["a".to_string(), "b".to_string()]);
        assert_eq!(t.columns.len(), 2);
        t.paste_row(&["c".to_string(), "d".to_string(), "e".to_string()]);
        assert_eq!(t.columns.len(), 3);
        // Earlier rows padded.
        assert_eq!(t.rows[0].cells.len(), 3);
    }

    #[test]
    fn suggestions_lifecycle() {
        let mut t = Tab::new("t");
        t.paste_row(&["a".to_string()]);
        t.suggest_rows(vec![
            (vec!["a".to_string()], None), // duplicate of pasted: skipped
            (vec!["b".to_string()], None),
            (vec!["c".to_string()], None),
        ]);
        assert_eq!(t.rows.len(), 3);
        let rejected = t.reject_row(2).unwrap();
        assert_eq!(rejected, vec!["c"]);
        assert_eq!(t.accept_all_suggestions(), 1);
        assert_eq!(t.rows[1].state, RowState::Accepted);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.committed_rows().len(), 2);
    }

    #[test]
    fn accept_all() {
        let mut t = Tab::new("t");
        t.suggest_rows(vec![
            (vec!["x".to_string()], None),
            (vec!["y".to_string()], None),
        ]);
        assert_eq!(t.accept_all_suggestions(), 2);
        assert_eq!(t.pasted_rows().len(), 0);
        assert_eq!(t.committed_rows().len(), 2);
    }

    #[test]
    fn user_names_beat_proposals() {
        let mut t = Tab::new("t");
        t.ensure_columns(2);
        t.propose_column(0, "Street", Some("PR-Street"));
        assert_eq!(t.columns[0].name, "Street");
        t.name_column(1, "Name");
        t.propose_column(1, "City", Some("PR-City"));
        assert_eq!(t.columns[1].name, "Name", "user name preserved");
        assert_eq!(t.columns[1].sem_type.as_deref(), Some("PR-City"));
    }

    #[test]
    fn add_column_aligns_values() {
        let mut t = Tab::new("t");
        t.paste_row(&["a".to_string()]);
        t.paste_row(&["b".to_string()]);
        t.add_column(Field::typed("Zip", "PR-Zip"), &["1".to_string()]);
        assert_eq!(t.rows[0].cells, vec!["a", "1"]);
        assert_eq!(t.rows[1].cells, vec!["b", ""]);
    }

    #[test]
    fn render_contains_markers_and_types() {
        let mut t = Tab::new("Shelters");
        t.paste_row(&["Creek HS".to_string()]);
        t.propose_column(0, "Name", None);
        t.suggest_rows(vec![(vec!["Rec Ctr".to_string()], None)]);
        let txt = t.render_text();
        assert!(txt.contains("=== Shelters ==="));
        assert!(txt.contains(" ? Rec Ctr"));
    }

    #[test]
    fn workspace_tabs() {
        let mut w = Workspace::new();
        assert_eq!(w.active_index(), 0);
        let i = w.add_tab(Tab::new("Contacts"));
        assert_eq!(i, 1);
        assert_eq!(w.active().title, "Contacts");
        assert!(w.switch_to(0));
        assert!(!w.switch_to(9));
    }
}
