//! Fixture: the guard is dropped (or scoped out) before blocking.

use copycat_util::sync::Mutex;
use std::sync::mpsc::Sender;

pub fn drain_after_drop(m: &Mutex<Vec<String>>, tx: &Sender<String>) {
    let guard = m.lock();
    let batch = guard.clone();
    drop(guard);
    for item in batch {
        let _ = tx.send(item);
    }
}

pub fn drain_after_scope(m: &Mutex<Vec<String>>, tx: &Sender<String>) {
    let batch = {
        let guard = m.lock();
        guard.clone()
    };
    for item in batch {
        let _ = tx.send(item);
    }
}

pub fn render_under_guard(m: &Mutex<Vec<String>>) -> String {
    let lines = m.lock();
    // A string join, not a thread join: nothing blocks here.
    lines.join("\n")
}
