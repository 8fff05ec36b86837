//! Property tests for the transform learner.
//!
//! Two guarantees the rest of the system leans on: any program the
//! learner returns reproduces *every* training example (consistency is
//! by construction, so this doubles as a harness check), and learning
//! is a pure function of the example set — the same pairs produce the
//! same program on every run and on every thread.

use copycat_transform::{learn, Case, Piece, Program, Tok};
use copycat_util::check::{check, Gen};
use copycat_util::{prop_ensure, prop_ensure_eq};

/// A random ground-truth program over digit groups and short literal
/// separators — always within the learner's enumeration bounds, so a
/// consistent program is guaranteed to exist for examples it labels.
fn ground_truth(g: &mut Gen) -> Program {
    let pieces = g.vec_of(1..4, |g| {
        if g.bool_p(0.35) {
            Piece::Const(g.string_of("-./ x", 1..3))
        } else {
            Piece::Extract {
                col: 0,
                tok: Tok::Digits,
                index: g.usize_in(0..3),
                rev: g.bool_p(0.3),
                case: Case::Keep,
            }
        }
    });
    Program { pieces }
}

/// Phone-shaped inputs with exactly three digit groups, so every
/// `digits[0..3]` extraction (forward or reversed) resolves.
fn inputs(g: &mut Gen) -> Vec<String> {
    g.vec_of(2..6, |g| {
        format!(
            "({:03}) {:03}-{:04}",
            g.usize_in(0..1000),
            g.usize_in(0..1000),
            g.usize_in(0..10000)
        )
    })
}

fn labeled_pairs(g: &mut Gen) -> Option<Vec<(Vec<String>, String)>> {
    let truth = ground_truth(g);
    let mut pairs = Vec::new();
    for input in inputs(g) {
        let row = vec![input];
        let output = truth.apply(&row)?;
        pairs.push((row, output));
    }
    Some(pairs)
}

#[test]
fn learned_programs_reproduce_all_training_examples() {
    check("transform-reproduces-training-examples", 64, &[], |g| {
        let Some(pairs) = labeled_pairs(g) else {
            return Ok(()); // ground truth unsatisfiable on these inputs
        };
        let program = learn(&pairs)
            .ok_or_else(|| format!("no program found though ground truth exists: {pairs:?}"))?;
        for (input, expected) in &pairs {
            let got = program.apply(input);
            prop_ensure_eq!(
                got.as_deref(),
                Some(expected.as_str()),
                "program {program} fails its own training example {input:?}"
            );
        }
        prop_ensure!(program.consistent(&pairs));
        Ok(())
    });
}

#[test]
fn learning_is_deterministic_across_runs_and_threads() {
    check("transform-learning-deterministic", 24, &[], |g| {
        let Some(pairs) = labeled_pairs(g) else {
            return Ok(());
        };
        let reference = learn(&pairs);
        // Same pairs, same thread: identical program (or identical None).
        prop_ensure_eq!(learn(&pairs), reference);
        // Same pairs from several concurrent threads: no shared state,
        // no iteration-order dependence, identical results everywhere.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pairs = pairs.clone();
                std::thread::spawn(move || learn(&pairs))
            })
            .collect();
        for handle in handles {
            let threaded = handle.join().expect("learner thread panicked");
            prop_ensure_eq!(threaded, reference);
        }
        Ok(())
    });
}
