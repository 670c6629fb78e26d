//! Differential gate for the ontology's class ids and masks. The reference
//! is the string walk the masks replaced: a class's ancestors found by
//! following `ClassDef::parent` names through the class list on every call.
//!
//! - `Ontology::is_subclass` equals the walk for every pair of classes;
//! - every property's domain and range ids name its declared classes, and
//!   `ClassSet::admits` equals the walk's "related either way" test for
//!   every class against every domain and range;
//! - at ×1, every labeled entity's `KnowledgeBase::entity_classes` agrees
//!   with its `classes_of` names under the walk, for `is_instance_of` and
//!   for the domain/range test.

use relpat_kb::{generate, ClassId, KbConfig, KnowledgeBase, Ontology};

/// The string walk: `sub` is `sup` or one of `sup`'s names is on `sub`'s
/// parent chain.
fn is_subclass_of(o: &Ontology, sub: &str, sup: &str) -> bool {
    let mut cur = Some(sub);
    while let Some(c) = cur {
        if c == sup {
            return true;
        }
        cur = o
            .classes
            .iter()
            .find(|d| d.name == c)
            .and_then(|d| d.parent);
    }
    false
}

fn related(o: &Ontology, a: &str, b: &str) -> bool {
    is_subclass_of(o, a, b) || is_subclass_of(o, b, a)
}

fn ids(o: &Ontology) -> impl Iterator<Item = (ClassId, &'static str)> + '_ {
    o.classes
        .iter()
        .enumerate()
        .map(|(i, c)| (ClassId(i as u8), c.name))
}

#[test]
fn subclass_masks_match_the_parent_walk() {
    let o = Ontology::dbpedia();
    let mut pairs = 0;
    for (a, an) in ids(&o) {
        assert_eq!(o.class_id(an), Some(a));
        for (b, bn) in ids(&o) {
            assert_eq!(
                o.is_subclass(a, b),
                is_subclass_of(&o, an, bn),
                "{an} ⊑ {bn}"
            );
            pairs += 1;
        }
    }
    assert_eq!(pairs, 43 * 43);
}

#[test]
fn property_domains_and_ranges_match_the_parent_walk() {
    let o = Ontology::dbpedia();
    let name = |c: ClassId| o.classes[c.0 as usize].name;
    let mut declared = Vec::new();
    for (i, p) in o.object_properties.iter().enumerate() {
        let (domain, range) = o.object_property_classes(i);
        assert_eq!(
            (name(domain), name(range)),
            (p.domain, p.range),
            "{}",
            p.name
        );
        declared.extend([domain, range]);
    }
    for (i, p) in o.data_properties.iter().enumerate() {
        let domain = o.data_property_domain(i);
        assert_eq!(name(domain), p.domain, "{}", p.name);
        declared.push(domain);
    }
    for d in declared {
        for (c, cn) in ids(&o) {
            assert_eq!(
                o.class_set(Some(c)).admits(&o, d),
                related(&o, cn, name(d)),
                "{cn} ~ {}",
                name(d)
            );
        }
    }
}

#[test]
fn entity_classes_match_their_class_names() {
    let kb: KnowledgeBase = generate(&KbConfig::default());
    let o = &kb.ontology;
    let mut entities = 0;
    for (_, row) in kb.labels_iter() {
        for &id in row {
            let names: Vec<&str> = kb.classes_of(id).collect();
            let set = kb.entity_classes(id);
            for (c, cn) in ids(o) {
                let by_walk = names.iter().any(|n| is_subclass_of(o, n, cn));
                assert_eq!(
                    kb.is_instance_of(id, c),
                    by_walk,
                    "{:?} is a {cn}",
                    kb.graph.term(id)
                );
                let admits = names.is_empty() || names.iter().any(|n| related(o, n, cn));
                assert_eq!(set.admits(o, c), admits, "{:?} ~ {cn}", kb.graph.term(id));
            }
            entities += 1;
        }
    }
    assert!(entities > 1000, "only {entities} entities");
}
