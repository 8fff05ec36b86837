//! Association discovery (§4.1).
//!
//! "In the current system we add to the source graph edges representing
//! joins based on (1) common attribute names and data types, (2) known
//! links or foreign keys … If sets of sources have multiple attributes in
//! common, we restrict the queries to match on all the attributes (i.e.,
//! we take the conjunction of all possible join predicates)."
//!
//! Additionally, relation columns whose semantic types align with a
//! service's input signature produce *bind* edges (the dependent joins of
//! Figure 4), and same-semantic-type text columns with *different* names
//! produce record-link edges.

use crate::source_graph::{EdgeKind, NodeId, NodeKind, SourceGraph};
use copycat_query::Schema;

/// Discovery options (A1 ablates `conjunction_of_all`).
#[derive(Debug, Clone)]
pub struct AssocOptions {
    /// Use the conjunction of all shared attributes per source pair
    /// (paper default). When false, one edge per shared attribute.
    pub conjunction_of_all: bool,
}

impl Default for AssocOptions {
    fn default() -> Self {
        Self { conjunction_of_all: true }
    }
}

/// Cost for discovered join edges.
const JOIN_COST: f64 = 1.0;
/// Cost for bind edges (service invocation). Services with a functional
/// input→output relationship are the most promising completions
/// (Figure 2 leads with the zip resolver), so bind edges start slightly
/// cheaper than generic attribute joins.
const BIND_COST: f64 = 0.9;
/// Cost for record-link edges on same-typed, differently-named text
/// columns (record linking is less certain than an equi-join, so it
/// starts costlier).
const LINK_COST: f64 = 1.5;

/// Whether two columns are join-compatible: equal names (case-insensitive)
/// *and*, when both carry semantic types, equal types.
fn name_compatible(a: &copycat_query::Field, b: &copycat_query::Field) -> bool {
    if !a.name.eq_ignore_ascii_case(&b.name) {
        return false;
    }
    match (&a.sem_type, &b.sem_type) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

/// Whether two columns are link-compatible: same semantic type, different
/// names (same names are handled by join edges).
fn link_compatible(a: &copycat_query::Field, b: &copycat_query::Field) -> bool {
    !a.name.eq_ignore_ascii_case(&b.name)
        && matches!((&a.sem_type, &b.sem_type), (Some(x), Some(y)) if x == y)
}

/// Run discovery over all node pairs, adding edges for pairs that have
/// none yet. Returns the number of edges added.
pub fn discover_associations(g: &mut SourceGraph, opts: &AssocOptions) -> usize {
    let n = g.node_count();
    let mut added = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (NodeId(i as u32), NodeId(j as u32));
            if g.incident(a).iter().any(|&e| g.other_end(e, a) == b) {
                continue; // already associated (e.g. a declared foreign key)
            }
            added += discover_pair(g, a, b, opts);
        }
    }
    added
}

fn discover_pair(g: &mut SourceGraph, a: NodeId, b: NodeId, opts: &AssocOptions) -> usize {
    let (na, nb) = (g.node(a).clone(), g.node(b).clone());
    let mut added = 0;
    match (&na.kind, &nb.kind) {
        (NodeKind::Relation, NodeKind::Relation) => {
            // Join edges on compatible shared columns.
            let mut pairs: Vec<(String, String)> = Vec::new();
            for fa in na.schema.fields() {
                for fb in nb.schema.fields() {
                    if name_compatible(fa, fb) {
                        pairs.push((fa.name.clone(), fb.name.clone()));
                    }
                }
            }
            if !pairs.is_empty() {
                if opts.conjunction_of_all {
                    g.add_edge_with_cost(a, b, EdgeKind::Join { pairs }, JOIN_COST);
                    added += 1;
                } else {
                    for p in pairs {
                        g.add_edge_with_cost(
                            a,
                            b,
                            EdgeKind::Join { pairs: vec![p] },
                            JOIN_COST,
                        );
                        added += 1;
                    }
                }
            }
            // Link edges on same-typed, differently-named columns.
            for fa in na.schema.fields() {
                for fb in nb.schema.fields() {
                    if link_compatible(fa, fb) {
                        g.add_edge_with_cost(
                            a,
                            b,
                            EdgeKind::Link { pairs: vec![(fa.name.clone(), fb.name.clone())] },
                            LINK_COST,
                        );
                        added += 1;
                    }
                }
            }
        }
        (NodeKind::Relation, NodeKind::Service) | (NodeKind::Service, NodeKind::Relation) => {
            let (rel, rel_id, svc, svc_id) = if na.kind == NodeKind::Relation {
                (&na, a, &nb, b)
            } else {
                (&nb, b, &na, a)
            };
            // Bind: every service input must be satisfiable from one
            // relation column, matched by semantic type first, then by
            // case-insensitive name.
            let inputs: Vec<&copycat_query::Field> =
                svc.schema.fields()[..svc.input_arity].iter().collect();
            let mut bindings = Vec::with_capacity(inputs.len());
            for inp in &inputs {
                let by_type = inp.sem_type.as_ref().and_then(|t| {
                    rel.schema
                        .fields()
                        .iter()
                        .find(|f| f.sem_type.as_deref() == Some(t.as_str()))
                });
                let by_name = rel
                    .schema
                    .fields()
                    .iter()
                    .find(|f| f.name.eq_ignore_ascii_case(&inp.name));
                match by_type.or(by_name) {
                    Some(col) => bindings.push(col.name.clone()),
                    None => return added, // an input cannot be bound
                }
            }
            if !bindings.is_empty() {
                g.add_edge_with_cost(
                    rel_id,
                    svc_id,
                    EdgeKind::Bind { bindings },
                    BIND_COST * svc.cost_hint,
                );
                added += 1;
            }
        }
        (NodeKind::Service, NodeKind::Service) => {
            // Service-service composition edges: one service's outputs can
            // bind another's inputs (by semantic type). Cost slightly
            // above bind (two invocations).
            let (sa, sb) = (&na, &nb);
            for (x, xid, y, yid) in [(sa, a, sb, b), (sb, b, sa, a)] {
                let outputs = &x.schema.fields()[x.input_arity..];
                let inputs = &y.schema.fields()[..y.input_arity];
                if inputs.is_empty() {
                    continue;
                }
                let all_bound = inputs.iter().all(|inp| {
                    outputs.iter().any(|o| {
                        o.sem_type.is_some() && o.sem_type == inp.sem_type
                    })
                });
                if all_bound {
                    let bindings = inputs
                        .iter()
                        .map(|inp| {
                            outputs
                                .iter()
                                .find(|o| o.sem_type == inp.sem_type)
                                .expect("checked")
                                .name
                                .clone()
                        })
                        .collect();
                    g.add_edge_with_cost(
                        xid,
                        yid,
                        EdgeKind::Bind { bindings },
                        BIND_COST * 1.2 * y.cost_hint,
                    );
                    added += 1;
                }
            }
        }
    }
    added
}

/// Build the Figure-4 style source graph for a catalog: one node per
/// relation (with the given schemas) and per service, then run discovery.
pub fn graph_for(
    relations: &[(&str, Schema)],
    services: &[(&str, Schema, usize)],
    opts: &AssocOptions,
) -> SourceGraph {
    let mut g = SourceGraph::new();
    for (name, schema) in relations {
        g.add_relation(*name, schema.clone());
    }
    for (name, schema, input_arity) in services {
        g.add_service(*name, schema.clone(), *input_arity);
    }
    discover_associations(&mut g, opts);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_graph::EdgeKind;
    use copycat_query::Field;

    fn shelters() -> Schema {
        Schema::new(vec![
            Field::new("Name"),
            Field::typed("Street", "PR-Street"),
            Field::typed("City", "PR-City"),
        ])
    }

    fn contacts() -> Schema {
        Schema::new(vec![
            Field::typed("Person", "PR-Person"),
            Field::typed("Phone", "PR-Phone"),
            Field::new("Venue"),
            Field::typed("City", "PR-City"),
        ])
    }

    fn zip_service() -> Schema {
        Schema::new(vec![
            Field::typed("street", "PR-Street"),
            Field::typed("city", "PR-City"),
            Field::typed("Zip", "PR-Zip"),
        ])
    }

    #[test]
    fn join_edge_uses_conjunction_by_default() {
        let g = graph_for(
            &[
                ("a", Schema::of(&["X", "Y", "Z"])),
                ("b", Schema::of(&["X", "Y", "W"])),
            ],
            &[],
            &AssocOptions::default(),
        );
        assert_eq!(g.edge_count(), 1);
        match &g.edge(crate::source_graph::EdgeId(0)).kind {
            EdgeKind::Join { pairs } => assert_eq!(pairs.len(), 2),
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn per_attribute_edges_when_ablated() {
        let opts = AssocOptions { conjunction_of_all: false };
        let g = graph_for(
            &[
                ("a", Schema::of(&["X", "Y"])),
                ("b", Schema::of(&["X", "Y"])),
            ],
            &[],
            &opts,
        );
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn bind_edge_by_semantic_type() {
        let g = graph_for(
            &[("shelters", shelters())],
            &[("zip_resolver", zip_service(), 2)],
            &AssocOptions::default(),
        );
        assert_eq!(g.edge_count(), 1);
        match &g.edge(crate::source_graph::EdgeId(0)).kind {
            EdgeKind::Bind { bindings } => {
                assert_eq!(bindings, &vec!["Street".to_string(), "City".to_string()]);
            }
            other => panic!("expected bind, got {other:?}"),
        }
    }

    #[test]
    fn no_bind_when_inputs_unsatisfiable() {
        let g = graph_for(
            &[("contacts_only", Schema::of(&["Person", "Phone"]))],
            &[("zip_resolver", zip_service(), 2)],
            &AssocOptions::default(),
        );
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn type_mismatch_blocks_name_join() {
        let a = Schema::new(vec![Field::typed("Code", "PR-Zip")]);
        let b = Schema::new(vec![Field::typed("Code", "PR-Phone")]);
        let g = graph_for(&[("a", a), ("b", b)], &[], &AssocOptions::default());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn link_edges_on_same_type_different_name() {
        let a = Schema::new(vec![Field::typed("HomeCity", "PR-City")]);
        let b = Schema::new(vec![Field::typed("Town", "PR-City")]);
        let g = graph_for(&[("a", a), ("b", b)], &[], &AssocOptions::default());
        assert_eq!(g.edge_count(), 1);
        assert!(matches!(
            &g.edge(crate::source_graph::EdgeId(0)).kind,
            EdgeKind::Link { .. }
        ));
    }

    #[test]
    fn figure4_shape() {
        // The running example: Shelters + Contacts + ZipCodes service.
        let g = graph_for(
            &[("Shelters", shelters()), ("Contacts", contacts())],
            &[("ZipCodes", zip_service(), 2)],
            &AssocOptions::default(),
        );
        // Shelters–Contacts join on City; Shelters–ZipCodes bind;
        // Contacts–ZipCodes bind is impossible (no street), and a
        // Shelters.City–Contacts.City join subsumes link edges on City.
        let shelters_id = g.node_by_name("Shelters").unwrap();
        let zip_id = g.node_by_name("ZipCodes").unwrap();
        let contacts_id = g.node_by_name("Contacts").unwrap();
        assert!(g
            .incident(shelters_id)
            .iter()
            .any(|&e| g.other_end(e, shelters_id) == zip_id));
        assert!(g
            .incident(shelters_id)
            .iter()
            .any(|&e| g.other_end(e, shelters_id) == contacts_id));
        assert!(g.incident(contacts_id).iter().all(|&e| g.other_end(e, contacts_id) != zip_id));
    }

    #[test]
    fn discovery_skips_already_linked_pairs() {
        let mut g = SourceGraph::new();
        let a = g.add_relation("a", Schema::of(&["X"]));
        let b = g.add_relation("b", Schema::of(&["X"]));
        g.add_edge(a, b, EdgeKind::Join { pairs: vec![("X".into(), "X".into())] });
        let added = discover_associations(&mut g, &AssocOptions::default());
        assert_eq!(added, 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn service_composition_edges() {
        // address resolver: name -> street/city; zip resolver: street/city -> zip.
        let addr = Schema::new(vec![
            Field::new("name"),
            Field::typed("Street", "PR-Street"),
            Field::typed("City", "PR-City"),
        ]);
        let g = graph_for(
            &[],
            &[("address_resolver", addr, 1), ("zip_resolver", zip_service(), 2)],
            &AssocOptions::default(),
        );
        assert_eq!(g.edge_count(), 1, "{g}");
    }
}
