//! The system catalog.
//!
//! §2.2: "The resulting source description gets added to a system
//! catalog." The catalog holds imported source relations (materialized by
//! executed wrappers) and registered services. It is shared between the
//! SCP engine, the integration learner and the executor, so access is
//! synchronized.
//!
//! A catalog can be layered over a shared immutable *base* catalog
//! ([`Catalog::with_base`]): reads fall through to the base, writes land
//! only in the session-local layer. Many tenant sessions over one synthetic world
//! share the base's relations and service implementations by `Arc`
//! instead of rebuilding them per session.

use crate::relation::Relation;
use crate::service::Service;
use copycat_util::sync::RwLock;
use copycat_util::hash::FxHashMap;
use std::sync::Arc;

/// Shared catalog of relations and services.
#[derive(Default)]
pub struct Catalog {
    /// The shared immutable layer below this one, if any. The base is
    /// never written through — mutating methods only touch the local
    /// maps.
    base: Option<Arc<Catalog>>,
    relations: RwLock<FxHashMap<String, Arc<Relation>>>,
    services: RwLock<FxHashMap<String, Arc<dyn Service>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// A session-local catalog layered over a shared base. The base is
    /// read-only from this layer's perspective; same-name local entries
    /// shadow base entries.
    pub fn with_base(base: Arc<Catalog>) -> Self {
        Self { base: Some(base), ..Self::default() }
    }

    /// Whether this catalog layers over a shared base.
    pub fn has_base(&self) -> bool {
        self.base.is_some()
    }

    /// Register (or replace) a relation under its own name.
    pub fn add_relation(&self, rel: Relation) -> Arc<Relation> {
        let arc = Arc::new(rel);
        self.relations
            .write()
            .insert(arc.name().to_string(), Arc::clone(&arc));
        arc
    }

    /// Register (or replace) a service under its own name.
    pub fn add_service(&self, svc: Arc<dyn Service>) {
        self.services.write().insert(svc.name().to_string(), svc);
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Option<Arc<Relation>> {
        if let Some(rel) = self.relations.read().get(name).cloned() {
            return Some(rel);
        }
        self.base.as_ref()?.relation(name)
    }

    /// Look up a service.
    pub fn service(&self, name: &str) -> Option<Arc<dyn Service>> {
        if let Some(svc) = self.services.read().get(name).cloned() {
            return Some(svc);
        }
        self.base.as_ref()?.service(name)
    }

    /// Sorted relation names.
    pub fn relation_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.relations.read().keys().cloned().collect();
        if let Some(base) = &self.base {
            for name in base.relation_names() {
                if !self.relations.read().contains_key(&name) {
                    v.push(name);
                }
            }
        }
        v.sort();
        v
    }

    /// Sorted service names.
    pub fn service_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.services.read().keys().cloned().collect();
        if let Some(base) = &self.base {
            for name in base.service_names() {
                if !self.services.read().contains_key(&name) {
                    v.push(name);
                }
            }
        }
        v.sort();
        v
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Catalog(relations: {:?}, services: {:?})",
            self.relation_names(),
            self.service_names()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::service::{FnService, Signature};

    fn echo_service(name: &str) -> Arc<dyn Service> {
        let sig = Signature {
            inputs: Schema::of(&["x"]),
            outputs: Schema::of(&["y"]),
        };
        Arc::new(FnService::new(name, sig, |i: &[crate::Value]| vec![i.to_vec()]))
    }

    #[test]
    fn add_and_lookup() {
        let cat = Catalog::new();
        cat.add_relation(Relation::empty("shelters", Schema::of(&["Name"])));
        assert!(cat.relation("shelters").is_some());
        assert!(cat.relation("nope").is_none());
        assert_eq!(cat.relation_names(), vec!["shelters"]);
    }

    #[test]
    fn services_registry() {
        let cat = Catalog::new();
        cat.add_service(echo_service("echo"));
        assert!(cat.service("echo").is_some());
        assert_eq!(cat.service_names(), vec!["echo"]);
    }

    #[test]
    fn layered_catalog_reads_through_and_shadows() {
        let base = Arc::new(Catalog::new());
        base.add_relation(Relation::empty("shelters", Schema::of(&["Name"])));
        base.add_service(echo_service("zip"));
        let layered = Catalog::with_base(Arc::clone(&base));
        assert!(layered.has_base());
        // Reads fall through.
        assert!(layered.relation("shelters").is_some());
        assert!(layered.service("zip").is_some());
        assert_eq!(layered.relation_names(), vec!["shelters"]);
        assert_eq!(layered.service_names(), vec!["zip"]);
        // The shared Arc is the same allocation, not a copy.
        assert!(Arc::ptr_eq(
            &base.relation("shelters").unwrap(),
            &layered.relation("shelters").unwrap()
        ));
        // A local shadow replaces the base entry without touching it.
        layered.add_relation(Relation::empty("shelters", Schema::of(&["Name", "Zip"])));
        assert_eq!(layered.relation("shelters").unwrap().schema().arity(), 2);
        assert_eq!(base.relation("shelters").unwrap().schema().arity(), 1);
        assert_eq!(layered.relation_names(), vec!["shelters"]);
    }
}
