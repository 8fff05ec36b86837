//! Per-tab state: a workspace tab carries its own grid, integration
//! query and transform columns, so undo and tab switches restore a tab
//! whole. Three regression tests pin cases where that state used to
//! leak between tabs or outlive an undo, and a seeded property drives
//! random edit sequences over a two-source world.

use copycat_core::{CopyCat, EditEffect, Mode, Scenario, ScenarioConfig};
use copycat_document::{Document, Sheet};
use copycat_query::{Field, Plan};
use copycat_util::check::{check, Gen};
use copycat_util::{prop_ensure, prop_ensure_eq};
use std::collections::BTreeSet;

fn strs(row: &[String]) -> Vec<&str> {
    row.iter().map(String::as_str).collect()
}

/// Paste `first` from the sheet `csv` into the active tab and accept
/// every suggested row.
fn sheet_tab(cc: &mut CopyCat, name: &str, csv: &str, first: &[&str]) {
    let doc = cc.open(Document::Sheet(Sheet::from_csv(name, csv, true)));
    cc.paste_example(doc, first);
    cc.accept_suggested_rows();
}

/// A transform column belongs to the tab it was accepted in: editing
/// the same column index in another tab is an ordinary local edit.
#[test]
fn transform_column_does_not_leak_into_another_tab() {
    let mut cc = CopyCat::new();
    sheet_tab(
        &mut cc,
        "stock.csv",
        "Item,Qty\nbolt,5\nnut,12\nwasher,7\n",
        &["bolt", "5"],
    );
    let shout = cc.suggest_transform(&[(0, "bolt!")]);
    assert_eq!(shout[0].program.to_string(), "concat(input, \"!\")");
    cc.accept_transform("Shout", &shout[0]);
    assert_eq!(cc.columns().len(), 3);

    cc.start_import_tab("codes");
    sheet_tab(
        &mut cc,
        "codes.csv",
        "A,B,C\nx,1,p\ny,2,q\nz,3,r\n",
        &["x", "1", "p"],
    );
    assert_eq!(cc.edit_cell(0, 2, "x!"), EditEffect::Local);
    let col2: Vec<String> = cc
        .workspace()
        .active()
        .committed_rows()
        .iter()
        .map(|r| r[2].clone())
        .collect();
    assert_eq!(col2, ["x!", "q", "r"], "only the edited cell changed");
}

/// Undoing an accepted transform forgets its program: a column later
/// accepted at the same index is not re-taught by the undone examples.
#[test]
fn undone_transform_does_not_capture_a_later_column() {
    let mut s = Scenario::build(&ScenarioConfig::default());
    s.import_shelters(1);
    let name0 = s.shelter_rows[0][0].clone();
    let copy = s.engine.suggest_transform(&[(0, name0.as_str())]);
    s.engine.accept_transform("Copy", &copy[0]);
    assert!(s.engine.undo());
    let zip = s
        .engine
        .column_suggestions()
        .into_iter()
        .find(|c| c.new_fields.iter().any(|f| f.name == "Zip"))
        .expect("zip column suggested");
    s.engine.accept_column(&zip);
    let col = s.engine.columns().len() - 1;
    let zips = |cc: &CopyCat| -> Vec<String> {
        cc.workspace()
            .active()
            .committed_rows()
            .iter()
            .map(|r| r[col].clone())
            .collect()
    };
    let before = zips(&s.engine);
    let name1 = s.shelter_rows[1][0].clone();
    assert_eq!(s.engine.edit_cell(1, col, &name1), EditEffect::Local);
    let after = zips(&s.engine);
    let changed: Vec<usize> = (0..before.len())
        .filter(|&i| before[i] != after[i])
        .collect();
    assert_eq!(changed, [1], "only the edited zip changed");
}

/// Switching away from an uncommitted import tab and back resumes the
/// import: the mode follows the tab, so the next paste lands in it.
#[test]
fn switching_back_to_an_import_tab_resumes_the_import() {
    let mut s = Scenario::build(&ScenarioConfig::default());
    s.import_shelters(1);
    s.engine.start_import_tab("contacts");
    s.engine
        .paste_example(s.contacts_doc, &strs(&s.contact_rows[0]));
    assert!(s.engine.switch_tab(0));
    assert_eq!(s.engine.mode(), Mode::Integrate);
    assert!(s.engine.switch_tab(1));
    s.engine
        .paste_example(s.contacts_doc, &strs(&s.contact_rows[1]));
    assert_eq!(
        s.engine.workspace().tabs().len(),
        2,
        "the paste reused the import tab"
    );
    assert_eq!(s.engine.workspace().active_index(), 1);
    assert_eq!(s.engine.mode(), Mode::Import);
    assert_eq!(s.engine.current_plan(), None);
}

/// What undo must bring back: the active tab's text, header, mode and
/// query.
#[derive(Debug, Clone, PartialEq)]
struct View {
    render: String,
    columns: Vec<Field>,
    mode: Mode,
    plan: Option<Plan>,
}

fn view(cc: &CopyCat) -> View {
    View {
        render: cc.render(),
        columns: cc.columns().to_vec(),
        mode: cc.mode(),
        plan: cc.current_plan().cloned(),
    }
}

/// The undo stack's bound (the engine drops the oldest checkpoint past it).
const MAX_UNDO: usize = 32;

/// Operation codes, repeated by weight: column and transform feedback,
/// edits and undo come often, so their interleavings are exercised.
const OPS: [usize; 20] = [0, 1, 2, 3, 3, 3, 4, 5, 5, 5, 6, 6, 6, 6, 7, 8, 8, 9, 9, 9];

/// Per-tab model: the column indices a live `accept_transform` created.
type TransformCols = Vec<BTreeSet<usize>>;

/// Random pastes, commits, column and transform feedback, edits,
/// renames, tab switches and undos over Shelters + Contacts. Every
/// checkpointing call records the view and the transform-column model
/// first; each `undo` must restore exactly that view, and an edit of a
/// column no live transform created in the active tab stays local.
#[test]
fn undo_and_tab_switches_restore_each_tab_whole() {
    check("tabs.undo_restores_tab_state", 48, &[], |g: &mut Gen| {
        let mut s = Scenario::build(&ScenarioConfig {
            venues: 8,
            ..Default::default()
        });
        s.import_shelters(1);
        s.import_contacts();
        let docs = [
            (s.shelters_doc, s.shelter_rows.clone()),
            (s.contacts_doc, s.contact_rows.clone()),
        ];
        let mut transforms: TransformCols = vec![BTreeSet::new(); 2];
        // The imports' own checkpoints are on the stack unrecorded.
        let mut stack: Vec<Option<(View, TransformCols)>> = vec![None; s.engine.undo_depth()];
        let mut commits = 0;
        let steps = g.usize_in(8..24);
        for step in 0..steps {
            let cc = &mut s.engine;
            let op = *g.choose(&OPS);
            // Calls that checkpoint record the state they will undo to.
            let checkpoints = matches!(op, 0 | 1 | 2 | 3 | 4 | 5 | 6);
            if checkpoints {
                stack.push(Some((view(cc), transforms.clone())));
                if stack.len() > MAX_UNDO {
                    stack.remove(0);
                }
            }
            match op {
                0 => {
                    let (doc, rows) = g.choose(&docs);
                    let row: &Vec<String> = g.choose(rows);
                    cc.paste_example(*doc, &strs(row));
                }
                1 => {
                    cc.accept_suggested_rows();
                }
                2 => {
                    commits += 1;
                    cc.commit_source(&format!("Source{commits}"));
                }
                3 | 4 => {
                    // Column feedback needs a shown suggestion; without
                    // one, edit a cell instead so the step still
                    // checkpoints.
                    let suggs = cc.column_suggestions();
                    if suggs.is_empty() {
                        cc.edit_cell(0, 0, "x");
                    } else {
                        let pick = &suggs[g.usize_in(0..suggs.len())];
                        if op == 3 {
                            cc.accept_column(pick);
                        } else {
                            cc.reject_column(pick);
                        }
                    }
                }
                5 => {
                    let rows = cc.workspace().active().committed_rows();
                    let sugg = match rows.first() {
                        Some(r) if !r.is_empty() => {
                            cc.suggest_transform(&[(0, format!("{}!", r[0]).as_str())])
                        }
                        _ => Vec::new(),
                    };
                    match sugg.first() {
                        Some(t) => {
                            let col = cc.columns().len();
                            cc.accept_transform(&format!("T{step}"), t);
                            transforms[cc.workspace().active_index()].insert(col);
                        }
                        None => {
                            cc.edit_cell(0, 0, "x");
                        }
                    }
                }
                6 => {
                    let tab = cc.workspace().active();
                    let row = g.usize_in(0..tab.rows.len().max(1));
                    // Half the edits hit the newest column, where an
                    // accepted transform or column lands.
                    let cols = tab.columns.len().max(1);
                    let col = if g.bool_p(0.5) {
                        cols - 1
                    } else {
                        g.usize_in(0..cols)
                    };
                    let live = transforms[cc.workspace().active_index()].contains(&col);
                    // Mostly the shape the transforms above learn, so a
                    // leaked program would re-learn and generalize.
                    let value = match tab.rows.get(row).and_then(|r| r.cells.first()) {
                        Some(first) if g.bool_p(0.7) => format!("{first}!"),
                        _ => g.string_of("ab!", 1..4),
                    };
                    let effect = cc.edit_cell(row, col, &value);
                    if !live {
                        prop_ensure_eq!(
                            effect,
                            EditEffect::Local,
                            "step {step}: edit of non-transform column {col}"
                        );
                    }
                }
                7 => {
                    let col = g.usize_in(0..4);
                    cc.name_column(col, &format!("N{step}"));
                }
                8 => {
                    let tabs = cc.workspace().tabs().len();
                    cc.switch_tab(g.usize_in(0..tabs + 1));
                }
                _ => {
                    let expected = stack.pop();
                    prop_ensure_eq!(cc.undo(), expected.is_some(), "step {step}");
                    if let Some(Some((before, model))) = expected {
                        let after = view(cc);
                        prop_ensure!(
                            after == before,
                            "step {step}: undo restored {after:?}, not {before:?}"
                        );
                        transforms = model;
                    }
                }
            }
            // New tabs (a paste in integration mode opens one) start
            // with no transform columns.
            let tabs = cc.workspace().tabs().len();
            while transforms.len() < tabs {
                transforms.push(BTreeSet::new());
            }
            prop_ensure_eq!(cc.undo_depth(), stack.len(), "step {step}: op {op}");
        }
        Ok(())
    });
}
