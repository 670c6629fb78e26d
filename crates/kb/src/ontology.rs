//! The DBpedia-style ontology: class taxonomy, object and data properties.
//!
//! Mirrors the fragment of the real DBpedia ontology (namespace `dbont:`)
//! that the paper's pipeline touches. Classes form a tree under `owl:Thing`;
//! properties carry labels, domains and ranges. The ontology is itself
//! materialized as RDF triples in the knowledge base so that label lookups,
//! class queries and property enumeration all go through the same store.

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

/// The full ontology definition.
#[derive(Debug, Clone)]
pub struct Ontology {
    pub classes: Vec<ClassDef>,
    pub object_properties: Vec<ObjectPropertyDef>,
    pub data_properties: Vec<DataPropertyDef>,
}

impl Ontology {
    /// The DBpedia-fragment ontology used throughout the system.
    pub fn dbpedia() -> Self {
        Ontology {
            classes: CLASSES.to_vec(),
            object_properties: OBJECT_PROPERTIES.to_vec(),
            data_properties: DATA_PROPERTIES.to_vec(),
        }
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

    /// All ancestors of a class (exclusive), nearest first.
    pub fn ancestors(&self, name: &str) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut cur = self.class(name).and_then(|c| c.parent);
        while let Some(p) = cur {
            out.push(p);
            cur = self.class(p).and_then(|c| c.parent);
        }
        out
    }

    /// True if `sub` is `sup` or a descendant of it.
    pub fn is_subclass_of(&self, sub: &str, sup: &str) -> bool {
        sub == sup || self.ancestors(sub).contains(&sup)
    }

    /// All classes that are `sup` or descendants of it.
    pub fn descendants(&self, sup: &str) -> Vec<&'static str> {
        self.classes
            .iter()
            .map(|c| c.name)
            .filter(|c| self.is_subclass_of(c, sup))
            .collect()
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
        assert!(o.is_subclass_of("Writer", "Person"));
        assert!(o.is_subclass_of("Writer", "Agent"));
        assert!(o.is_subclass_of("City", "Place"));
        assert!(o.is_subclass_of("Book", "Work"));
        assert!(!o.is_subclass_of("Book", "Person"));
        assert!(o.is_subclass_of("Person", "Person"));
    }

    #[test]
    fn ancestors_nearest_first() {
        let o = Ontology::dbpedia();
        assert_eq!(o.ancestors("Writer"), vec!["Artist", "Person", "Agent"]);
        assert!(o.ancestors("Place").is_empty());
    }

    #[test]
    fn descendants_include_self() {
        let o = Ontology::dbpedia();
        let d = o.descendants("Person");
        assert!(d.contains(&"Person"));
        assert!(d.contains(&"Writer"));
        assert!(d.contains(&"BasketballPlayer"));
        assert!(!d.contains(&"Company"));
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
    fn data_ranges_map_to_xsd() {
        assert_eq!(DataRange::Integer.datatype(), xsd::INTEGER);
        assert_eq!(DataRange::Date.datatype(), xsd::DATE);
    }
}
