//! The DBpedia-style ontology: class taxonomy, object and data properties.
//!
//! Mirrors the fragment of the real DBpedia ontology (namespace `dbont:`)
//! that the paper's pipeline touches. Classes form a tree under `owl:Thing`;
//! properties carry labels, domains and ranges. The ontology is itself
//! materialized as RDF triples in the knowledge base so that label lookups,
//! class queries and property enumeration all go through the same store.

use relpat_obs::fx::FxHashMap;
use relpat_rdf::vocab::{dbont, owl, rdfs, xsd};
use relpat_rdf::{GraphBuilder, Iri, Literal, Term};

/// Range of a data property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataRange {
    Integer,
    Double,
    Date,
    String,
}

impl DataRange {
    /// The XSD datatype IRI for this range.
    pub fn datatype(self) -> &'static str {
        match self {
            DataRange::Integer => xsd::INTEGER,
            DataRange::Double => xsd::DOUBLE,
            DataRange::Date => xsd::DATE,
            DataRange::String => xsd::STRING,
        }
    }
}

/// An ontology class (`dbont:Book`).
#[derive(Debug, Clone)]
pub struct ClassDef {
    /// Local name within `dbont:` (`Book`).
    pub name: &'static str,
    /// Human label ("book").
    pub label: &'static str,
    /// Parent class local name (`None` only for top-level classes).
    pub parent: Option<&'static str>,
}

/// An object property (`dbont:author`: Book → Person).
#[derive(Debug, Clone)]
pub struct ObjectPropertyDef {
    pub name: &'static str,
    pub label: &'static str,
    pub domain: &'static str,
    pub range: &'static str,
}

/// A data property (`dbont:height`: Person → double).
#[derive(Debug, Clone)]
pub struct DataPropertyDef {
    pub name: &'static str,
    pub label: &'static str,
    pub domain: &'static str,
    pub range: DataRange,
}

/// Dense id of an ontology class: its index in [`Ontology::classes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u8);

impl ClassId {
    /// The class's bit in a class mask.
    pub fn bit(self) -> u64 {
        1 << self.0
    }
}

/// Dense id of an ontology property: the object properties in declaration
/// order, then the data properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropertyId(pub u8);

/// One ontology property under its [`PropertyId`], with what §2.2 scores
/// and §2.3 writes built once by the ontology's constructor.
#[derive(Debug, Clone)]
pub struct Property {
    pub name: &'static str,
    pub label: &'static str,
    pub is_data: bool,
    pub domain: ClassId,
    /// The range class of an object property; `None` for a data property.
    pub range: Option<ClassId>,
    /// The property's IRI as a term.
    pub term: Term,
    /// Scoring keys: the lowercased name, its camel-case words and the
    /// lowercased label's words.
    pub name_lower: String,
    pub name_words: Vec<String>,
    pub label_words: Vec<String>,
}

impl Property {
    fn new(
        name: &'static str,
        label: &'static str,
        domain: ClassId,
        range: Option<ClassId>,
    ) -> Self {
        Property {
            name,
            label,
            is_data: range.is_none(),
            domain,
            range,
            term: Term::Iri(Ontology::property_iri(name)),
            name_lower: name.to_lowercase(),
            name_words: split_camel_case(name),
            label_words: label.to_lowercase().split_whitespace().map(str::to_string).collect(),
        }
    }
}

/// Splits a camelCase property local name into lower-cased words
/// (`populationTotal` → `["population", "total"]`).
pub fn split_camel_case(name: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut cur = String::new();
    for c in name.chars() {
        if c.is_uppercase() && !cur.is_empty() {
            words.push(std::mem::take(&mut cur));
        }
        cur.extend(c.to_lowercase());
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    words
}

/// Mask bit of a `dbont:` class the ontology does not define. It relates to
/// no ontology class, so the ontology holds at most 63 classes.
const UNDEFINED_CLASS_BIT: u64 = 1 << 63;

/// Some ontology classes as bit masks over [`ClassId`]s: the classes
/// themselves (an entity's direct `rdf:type` classes), and the classes with
/// all their ancestors. A `dbont:` class outside the ontology sets a bit of
/// its own in both, which no ontology class relates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassSet {
    pub direct: u64,
    pub closure: u64,
}

impl ClassSet {
    /// This set plus `other`'s classes.
    pub fn union(self, other: ClassSet) -> ClassSet {
        ClassSet { direct: self.direct | other.direct, closure: self.closure | other.closure }
    }

    /// True if one of the classes is `class` or a subclass of it.
    pub fn is_a(self, class: ClassId) -> bool {
        self.closure & class.bit() != 0
    }

    /// The §2.3 domain/range test: no `dbont:` class at all, or one related
    /// to `declared` either way along the taxonomy.
    pub fn admits(self, ontology: &Ontology, declared: ClassId) -> bool {
        self.direct == 0
            || self.is_a(declared)
            || self.direct & ontology.ancestor_mask(declared) != 0
    }
}

/// The full ontology definition, with the class taxonomy as dense ids, one
/// ancestor-or-self mask per class and every property under its
/// [`PropertyId`], built once by the constructor.
#[derive(Debug, Clone)]
pub struct Ontology {
    pub classes: Vec<ClassDef>,
    pub object_properties: Vec<ObjectPropertyDef>,
    pub data_properties: Vec<DataPropertyDef>,
    /// Per class id: the class and all its ancestors.
    ancestor_masks: Vec<u64>,
    /// Per property id.
    properties: Vec<Property>,
    /// Property local name → id.
    property_ids: FxHashMap<&'static str, PropertyId>,
}

impl Ontology {
    /// The DBpedia-fragment ontology used throughout the system.
    pub fn dbpedia() -> Self {
        let classes = CLASSES.to_vec();
        assert!(classes.len() < 64, "class masks hold at most 63 classes");
        let id = |name: &str| {
            let i = classes.iter().position(|c| c.name == name);
            ClassId(i.unwrap_or_else(|| panic!("undefined class {name}")) as u8)
        };
        let ancestor_masks = classes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut mask = 1u64 << i;
                let mut parent = c.parent;
                while let Some(p) = parent {
                    let p = id(p);
                    mask |= p.bit();
                    parent = classes[p.0 as usize].parent;
                }
                mask
            })
            .collect();
        let object = OBJECT_PROPERTIES
            .iter()
            .map(|p| Property::new(p.name, p.label, id(p.domain), Some(id(p.range))));
        let data =
            DATA_PROPERTIES.iter().map(|p| Property::new(p.name, p.label, id(p.domain), None));
        let properties: Vec<Property> = object.chain(data).collect();
        // The lexical index returns property ids as a 64-bit mask.
        assert!(properties.len() <= 64, "the ontology holds at most 64 properties");
        let property_ids =
            properties.iter().enumerate().map(|(i, p)| (p.name, PropertyId(i as u8))).collect();
        Ontology {
            classes,
            object_properties: OBJECT_PROPERTIES.to_vec(),
            data_properties: DATA_PROPERTIES.to_vec(),
            ancestor_masks,
            properties,
            property_ids,
        }
    }

    /// The property with id `id`.
    pub fn property(&self, id: PropertyId) -> &Property {
        &self.properties[id.0 as usize]
    }

    /// The id of a property by local name.
    pub fn property_id(&self, name: &str) -> Option<PropertyId> {
        self.property_ids.get(name).copied()
    }

    /// The id of `object_properties[i]`.
    pub fn object_property_id(&self, i: usize) -> PropertyId {
        PropertyId(i as u8)
    }

    /// The id of `data_properties[i]`.
    pub fn data_property_id(&self, i: usize) -> PropertyId {
        PropertyId((self.object_properties.len() + i) as u8)
    }

    /// The id of a class by local name.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.classes.iter().position(|c| c.name == name).map(|i| ClassId(i as u8))
    }

    /// The set of one class; `None` stands for a `dbont:` class the
    /// ontology does not define.
    pub fn class_set(&self, class: Option<ClassId>) -> ClassSet {
        match class {
            Some(c) => ClassSet { direct: c.bit(), closure: self.ancestor_mask(c) },
            None => ClassSet { direct: UNDEFINED_CLASS_BIT, closure: UNDEFINED_CLASS_BIT },
        }
    }

    /// The class and all its ancestors, one bit per class id.
    pub fn ancestor_mask(&self, class: ClassId) -> u64 {
        self.ancestor_masks[class.0 as usize]
    }

    /// True if `sub` is `sup` or a descendant of it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.ancestor_mask(sub) & sup.bit() != 0
    }

    /// Domain and range class ids of `object_properties[i]`.
    pub fn object_property_classes(&self, i: usize) -> (ClassId, ClassId) {
        let p = self.property(self.object_property_id(i));
        (p.domain, p.range.expect("an object property has a range"))
    }

    /// Domain class id of `data_properties[i]`.
    pub fn data_property_domain(&self, i: usize) -> ClassId {
        self.property(self.data_property_id(i)).domain
    }

    /// IRI of a class by local name.
    pub fn class_iri(name: &str) -> Iri {
        Iri::new(dbont::iri(name))
    }

    /// IRI of a property by local name.
    pub fn property_iri(name: &str) -> Iri {
        Iri::new(dbont::iri(name))
    }

    /// Looks up a class definition.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Materializes the ontology as RDF triples (class tree, property
    /// declarations, labels) into a graph builder.
    pub fn materialize(&self, graph: &mut GraphBuilder) {
        let label = Term::iri(rdfs::LABEL);
        let ty = Term::iri(relpat_rdf::vocab::rdf::TYPE);
        for c in &self.classes {
            let iri = Term::Iri(Self::class_iri(c.name));
            graph.add(iri.clone(), ty.clone(), Term::iri(owl::CLASS));
            graph.add(iri.clone(), label.clone(), Term::Literal(Literal::lang(c.label, "en")));
            let parent = match c.parent {
                Some(p) => Term::Iri(Self::class_iri(p)),
                None => Term::iri(owl::THING),
            };
            graph.add(iri, Term::iri(rdfs::SUBCLASS_OF), parent);
        }
        for p in &self.object_properties {
            let iri = Term::Iri(Self::property_iri(p.name));
            graph.add(iri.clone(), ty.clone(), Term::iri(owl::OBJECT_PROPERTY));
            graph.add(iri.clone(), label.clone(), Term::Literal(Literal::lang(p.label, "en")));
            graph.add(iri.clone(), Term::iri(rdfs::DOMAIN), Term::Iri(Self::class_iri(p.domain)));
            graph.add(iri, Term::iri(rdfs::RANGE), Term::Iri(Self::class_iri(p.range)));
        }
        for p in &self.data_properties {
            let iri = Term::Iri(Self::property_iri(p.name));
            graph.add(iri.clone(), ty.clone(), Term::iri(owl::DATATYPE_PROPERTY));
            graph.add(iri.clone(), label.clone(), Term::Literal(Literal::lang(p.label, "en")));
            graph.add(iri, Term::iri(rdfs::DOMAIN), Term::Iri(Self::class_iri(p.domain)));
        }
    }
}

const CLASSES: &[ClassDef] = &[
    // People
    ClassDef { name: "Agent", label: "agent", parent: None },
    ClassDef { name: "Person", label: "person", parent: Some("Agent") },
    ClassDef { name: "Artist", label: "artist", parent: Some("Person") },
    ClassDef { name: "Writer", label: "writer", parent: Some("Artist") },
    ClassDef { name: "MusicalArtist", label: "musical artist", parent: Some("Artist") },
    ClassDef { name: "Actor", label: "actor", parent: Some("Artist") },
    ClassDef { name: "FilmDirector", label: "film director", parent: Some("Artist") },
    ClassDef { name: "Athlete", label: "athlete", parent: Some("Person") },
    ClassDef { name: "BasketballPlayer", label: "basketball player", parent: Some("Athlete") },
    ClassDef { name: "Scientist", label: "scientist", parent: Some("Person") },
    ClassDef { name: "Politician", label: "politician", parent: Some("Person") },
    ClassDef { name: "President", label: "president", parent: Some("Politician") },
    ClassDef { name: "Mayor", label: "mayor", parent: Some("Politician") },
    ClassDef { name: "Architect", label: "architect", parent: Some("Person") },
    // Organisations
    ClassDef { name: "Organisation", label: "organisation", parent: Some("Agent") },
    ClassDef { name: "Company", label: "company", parent: Some("Organisation") },
    ClassDef { name: "Airline", label: "airline", parent: Some("Company") },
    ClassDef { name: "University", label: "university", parent: Some("Organisation") },
    ClassDef { name: "Band", label: "band", parent: Some("Organisation") },
    // Places
    ClassDef { name: "Place", label: "place", parent: None },
    ClassDef { name: "PopulatedPlace", label: "populated place", parent: Some("Place") },
    ClassDef { name: "Country", label: "country", parent: Some("PopulatedPlace") },
    ClassDef { name: "Settlement", label: "settlement", parent: Some("PopulatedPlace") },
    ClassDef { name: "City", label: "city", parent: Some("Settlement") },
    ClassDef { name: "NaturalPlace", label: "natural place", parent: Some("Place") },
    ClassDef { name: "BodyOfWater", label: "body of water", parent: Some("NaturalPlace") },
    ClassDef { name: "River", label: "river", parent: Some("BodyOfWater") },
    ClassDef { name: "Lake", label: "lake", parent: Some("BodyOfWater") },
    ClassDef { name: "Mountain", label: "mountain", parent: Some("NaturalPlace") },
    ClassDef { name: "Building", label: "building", parent: Some("Place") },
    ClassDef { name: "Museum", label: "museum", parent: Some("Building") },
    ClassDef { name: "Bridge", label: "bridge", parent: Some("Place") },
    // Works
    ClassDef { name: "Work", label: "work", parent: None },
    ClassDef { name: "WrittenWork", label: "written work", parent: Some("Work") },
    ClassDef { name: "Book", label: "book", parent: Some("WrittenWork") },
    ClassDef { name: "Film", label: "film", parent: Some("Work") },
    ClassDef { name: "MusicalWork", label: "musical work", parent: Some("Work") },
    ClassDef { name: "Album", label: "album", parent: Some("MusicalWork") },
    ClassDef { name: "Song", label: "song", parent: Some("MusicalWork") },
    ClassDef { name: "VideoGame", label: "video game", parent: Some("Work") },
    ClassDef { name: "Painting", label: "painting", parent: Some("Work") },
    // Misc
    ClassDef { name: "Language", label: "language", parent: None },
    ClassDef { name: "Currency", label: "currency", parent: None },
];

const OBJECT_PROPERTIES: &[ObjectPropertyDef] = &[
    ObjectPropertyDef { name: "author", label: "author", domain: "Book", range: "Person" },
    ObjectPropertyDef { name: "writer", label: "writer", domain: "Song", range: "Person" },
    ObjectPropertyDef { name: "director", label: "director", domain: "Film", range: "Person" },
    ObjectPropertyDef { name: "starring", label: "starring", domain: "Film", range: "Actor" },
    ObjectPropertyDef { name: "producer", label: "producer", domain: "Film", range: "Person" },
    ObjectPropertyDef {
        name: "musicComposer",
        label: "music composer",
        domain: "MusicalWork",
        range: "Person",
    },
    ObjectPropertyDef { name: "artist", label: "artist", domain: "Album", range: "MusicalArtist" },
    ObjectPropertyDef { name: "birthPlace", label: "birth place", domain: "Person", range: "Place" },
    ObjectPropertyDef { name: "deathPlace", label: "death place", domain: "Person", range: "Place" },
    ObjectPropertyDef { name: "residence", label: "residence", domain: "Person", range: "Place" },
    ObjectPropertyDef { name: "spouse", label: "spouse", domain: "Person", range: "Person" },
    ObjectPropertyDef { name: "child", label: "child", domain: "Person", range: "Person" },
    ObjectPropertyDef { name: "almaMater", label: "alma mater", domain: "Person", range: "University" },
    ObjectPropertyDef { name: "capital", label: "capital", domain: "Country", range: "City" },
    ObjectPropertyDef { name: "country", label: "country", domain: "Place", range: "Country" },
    ObjectPropertyDef { name: "largestCity", label: "largest city", domain: "Country", range: "City" },
    ObjectPropertyDef {
        name: "officialLanguage",
        label: "official language",
        domain: "Country",
        range: "Language",
    },
    ObjectPropertyDef { name: "currency", label: "currency", domain: "Country", range: "Currency" },
    ObjectPropertyDef { name: "leaderName", label: "leader name", domain: "Country", range: "Person" },
    ObjectPropertyDef { name: "mayor", label: "mayor", domain: "City", range: "Person" },
    ObjectPropertyDef { name: "location", label: "location", domain: "Organisation", range: "City" },
    ObjectPropertyDef {
        name: "headquarter",
        label: "headquarter",
        domain: "Company",
        range: "City",
    },
    ObjectPropertyDef { name: "foundedBy", label: "founded by", domain: "Organisation", range: "Person" },
    ObjectPropertyDef { name: "keyPerson", label: "key person", domain: "Company", range: "Person" },
    ObjectPropertyDef { name: "developer", label: "developer", domain: "VideoGame", range: "Company" },
    ObjectPropertyDef { name: "publisher", label: "publisher", domain: "Book", range: "Company" },
    ObjectPropertyDef { name: "crosses", label: "crosses", domain: "Bridge", range: "River" },
    ObjectPropertyDef { name: "mouthCountry", label: "mouth country", domain: "River", range: "Country" },
    ObjectPropertyDef { name: "bandMember", label: "band member", domain: "Band", range: "MusicalArtist" },
];

const DATA_PROPERTIES: &[DataPropertyDef] = &[
    DataPropertyDef { name: "height", label: "height", domain: "Person", range: DataRange::Double },
    DataPropertyDef { name: "birthDate", label: "birth date", domain: "Person", range: DataRange::Date },
    DataPropertyDef { name: "deathDate", label: "death date", domain: "Person", range: DataRange::Date },
    DataPropertyDef {
        name: "populationTotal",
        label: "population total",
        domain: "PopulatedPlace",
        range: DataRange::Integer,
    },
    DataPropertyDef {
        name: "areaTotal",
        label: "area total",
        domain: "PopulatedPlace",
        range: DataRange::Double,
    },
    DataPropertyDef {
        name: "elevation",
        label: "elevation",
        domain: "Mountain",
        range: DataRange::Double,
    },
    DataPropertyDef { name: "length", label: "length", domain: "River", range: DataRange::Double },
    DataPropertyDef { name: "depth", label: "depth", domain: "Lake", range: DataRange::Double },
    DataPropertyDef {
        name: "numberOfPages",
        label: "number of pages",
        domain: "Book",
        range: DataRange::Integer,
    },
    DataPropertyDef {
        name: "numberOfEmployees",
        label: "number of employees",
        domain: "Company",
        range: DataRange::Integer,
    },
    DataPropertyDef {
        name: "foundingDate",
        label: "founding date",
        domain: "Organisation",
        range: DataRange::Date,
    },
    DataPropertyDef {
        name: "releaseDate",
        label: "release date",
        domain: "Work",
        range: DataRange::Date,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_links_resolve() {
        let o = Ontology::dbpedia();
        for c in &o.classes {
            if let Some(p) = c.parent {
                assert!(o.class(p).is_some(), "dangling parent {p} of {}", c.name);
            }
        }
        for p in &o.object_properties {
            assert!(o.class(p.domain).is_some(), "bad domain for {}", p.name);
            assert!(o.class(p.range).is_some(), "bad range for {}", p.name);
        }
        for p in &o.data_properties {
            assert!(o.class(p.domain).is_some(), "bad domain for {}", p.name);
        }
    }

    #[test]
    fn subclass_reasoning() {
        let o = Ontology::dbpedia();
        let sub = |a: &str, b: &str| o.is_subclass(o.class_id(a).unwrap(), o.class_id(b).unwrap());
        assert!(sub("Writer", "Person"));
        assert!(sub("Writer", "Agent"));
        assert!(sub("City", "Place"));
        assert!(sub("Book", "Work"));
        assert!(!sub("Book", "Person"));
        assert!(sub("Person", "Person"));
        assert!(!sub("Person", "Writer"));
    }

    #[test]
    fn ancestor_mask_is_the_parent_chain() {
        let o = Ontology::dbpedia();
        let mask = |names: &[&str]| names.iter().map(|n| o.class_id(n).unwrap().bit()).sum::<u64>();
        let writer = o.class_id("Writer").unwrap();
        assert_eq!(o.ancestor_mask(writer), mask(&["Writer", "Artist", "Person", "Agent"]));
        assert_eq!(o.ancestor_mask(o.class_id("Place").unwrap()), mask(&["Place"]));
        assert_eq!(o.class_id("Spaceship"), None);
    }

    #[test]
    fn class_sets_admit_related_classes_only() {
        let o = Ontology::dbpedia();
        let id = |n: &str| o.class_id(n).unwrap();
        let of = |n: &str| o.class_set(Some(id(n)));
        // Down and up the taxonomy, not across it.
        assert!(of("Writer").admits(&o, id("Person")));
        assert!(of("Person").admits(&o, id("Writer")));
        assert!(!of("Book").admits(&o, id("Person")));
        // No class at all admits anything; an undefined one admits nothing.
        assert!(ClassSet::default().admits(&o, id("Person")));
        let undefined = o.class_set(None);
        assert!(!undefined.admits(&o, id("Person")));
        assert!(!undefined.is_a(id("Person")));
        assert!(of("Writer").union(undefined).admits(&o, id("Person")));
        assert!(of("Writer").is_a(id("Agent")) && !of("Writer").is_a(id("Place")));
    }

    #[test]
    fn materialize_produces_labels_and_tree() {
        let o = Ontology::dbpedia();
        let mut b = GraphBuilder::new();
        o.materialize(&mut b);
        let g = b.build();
        let book = Term::Iri(Ontology::class_iri("Book"));
        let labels = g.objects_of(&book, &Term::iri(rdfs::LABEL));
        assert_eq!(labels.len(), 1);
        let supers = g.objects_of(&book, &Term::iri(rdfs::SUBCLASS_OF));
        assert_eq!(supers, vec![Term::Iri(Ontology::class_iri("WrittenWork"))]);
        // Property declarations present
        let author = Term::Iri(Ontology::property_iri("author"));
        assert!(!g.objects_of(&author, &Term::iri(rdfs::DOMAIN)).is_empty());
    }

    #[test]
    fn class_names_unique() {
        let o = Ontology::dbpedia();
        let mut names: Vec<_> = o.classes.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn property_ids_number_object_then_data_properties() {
        let o = Ontology::dbpedia();
        for (i, p) in o.object_properties.iter().enumerate() {
            let id = o.object_property_id(i);
            assert_eq!(o.property_id(p.name), Some(id));
            let def = o.property(id);
            assert!(!def.is_data && def.label == p.label);
            assert_eq!(def.term, Term::Iri(Ontology::property_iri(p.name)));
        }
        for (i, p) in o.data_properties.iter().enumerate() {
            let id = o.data_property_id(i);
            assert_eq!(o.property_id(p.name), Some(id));
            assert!(o.property(id).is_data && o.property(id).range.is_none());
        }
        assert_eq!(o.property_id("taxiDriver"), None);
        let pages = o.property(o.property_id("numberOfPages").unwrap());
        assert_eq!(pages.name_lower, "numberofpages");
        assert_eq!(pages.name_words, ["number", "of", "pages"]);
        assert_eq!(pages.label_words, ["number", "of", "pages"]);
    }

    #[test]
    fn data_ranges_map_to_xsd() {
        assert_eq!(DataRange::Integer.datatype(), xsd::INTEGER);
        assert_eq!(DataRange::Date.datatype(), xsd::DATE);
    }
}
