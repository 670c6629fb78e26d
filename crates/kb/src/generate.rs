//! Deterministic synthetic-DBpedia generator.
//!
//! Substitutes for the live DBpedia endpoint the paper queried. All content
//! is derived from a seed: same [`KbConfig`] → byte-identical knowledge base.
//! A fixed set of "famous" entities reproduces the paper's running examples
//! (Orhan Pamuk and his books, Michael Jordan's height, Abraham Lincoln's
//! death place, Michael Jackson born in Gary, Frank Herbert's death date),
//! and bulk entities scale the store to a realistic size.

use relpat_obs::Rng;
use relpat_rdf::vocab::{self, dbont, rdf, rdfs, res};
use relpat_rdf::{GraphBuilder, Iri, Literal, Term};
use relpat_obs::fx::{FxHashMap, FxHashSet};

use crate::kb::KnowledgeBase;
use crate::names;
use crate::ontology::Ontology;

/// Size knobs for the generator. Defaults produce a KB of a few thousand
/// entities — large enough for meaningful retrieval, small enough for tests.
#[derive(Debug, Clone)]
pub struct KbConfig {
    pub seed: u64,
    pub countries: usize,
    pub cities_per_country: usize,
    pub writers: usize,
    pub directors: usize,
    pub actors: usize,
    pub musicians: usize,
    pub players: usize,
    pub scientists: usize,
    pub companies: usize,
    pub universities: usize,
    pub games: usize,
    pub rivers: usize,
    pub mountains: usize,
    pub lakes: usize,
    pub bands: usize,
    /// Extra random page links (noise) as a fraction of entity count.
    pub link_noise: f64,
}

impl Default for KbConfig {
    fn default() -> Self {
        KbConfig {
            seed: 0x5EED_CAFE,
            countries: 30,
            cities_per_country: 4,
            writers: 60,
            directors: 30,
            actors: 80,
            musicians: 40,
            players: 30,
            scientists: 30,
            companies: 40,
            universities: 20,
            games: 30,
            rivers: 20,
            mountains: 20,
            lakes: 12,
            bands: 20,
            link_noise: 0.5,
        }
    }
}

impl KbConfig {
    /// A smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        KbConfig {
            countries: 6,
            cities_per_country: 2,
            writers: 10,
            directors: 6,
            actors: 12,
            musicians: 8,
            players: 6,
            scientists: 6,
            companies: 8,
            universities: 4,
            games: 6,
            rivers: 5,
            mountains: 5,
            lakes: 3,
            bands: 4,
            ..KbConfig::default()
        }
    }

    /// Scales every entity count by an integer factor (for store-scaling
    /// benchmarks). Name pools are reused with numeric suffixes.
    pub fn scaled(factor: usize) -> Self {
        let base = KbConfig::default();
        KbConfig {
            countries: base.countries, // bounded by the name pool
            cities_per_country: base.cities_per_country * factor,
            writers: base.writers * factor,
            directors: base.directors * factor,
            actors: base.actors * factor,
            musicians: base.musicians * factor,
            players: base.players * factor,
            scientists: base.scientists * factor,
            companies: base.companies * factor,
            universities: base.universities * factor,
            games: base.games * factor,
            rivers: base.rivers * factor,
            mountains: base.mountains * factor,
            lakes: base.lakes * factor,
            bands: base.bands * factor,
            ..base
        }
    }
}

/// Pinned fingerprint of the default-scale knowledge base
/// ([`KbConfig::default`], equivalently `KbConfig::scaled(1)`). Generator
/// refactors that only touch the large-scale fallback paths (where the name
/// pools are exhausted) must keep this byte-identical; the store-scaling
/// smoke gate asserts it on every CI run.
pub const DEFAULT_KB_FINGERPRINT: u64 = 0x382b_011a_6e07_1b92;

/// Generates the knowledge base.
pub fn generate(config: &KbConfig) -> KnowledgeBase {
    let mut gen = Generator::new(config.clone());
    gen.famous_entities();
    gen.bulk_entities();
    gen.page_links();
    let ontology = Ontology::dbpedia();
    KnowledgeBase::from_graph(gen.graph.build(), ontology)
}

struct Generator {
    config: KbConfig,
    rng: Rng,
    graph: GraphBuilder,
    used_iris: FxHashSet<String>,
    /// Every minted entity's `rdfs:label` (exactly one each), so generation
    /// never has to read back the graph it is still building.
    labels: FxHashMap<Iri, Literal>,
    /// Every object-property fact `(s, o)` in push order, the source of the
    /// derived page links.
    facts: Vec<(Iri, Iri)>,
    // Entity registries used for cross-links while generating.
    countries: Vec<Iri>,
    cities: Vec<Iri>,
    persons: Vec<Iri>,
    actors: Vec<Iri>,
    musicians: Vec<Iri>,
    companies: Vec<Iri>,
    universities: Vec<Iri>,
    rivers: Vec<Iri>,
    famous_athlete: Option<Iri>,
    /// Persistent positions in the deterministic fallback name/title walks.
    /// Restarting the walk per call (the old `k = used.len()` scheme) made
    /// every post-exhaustion draw re-scan the same occupied prefix, turning
    /// generation quadratic past ~1.2M triples; the cursors keep the walk
    /// amortized O(1) per draw at any scale.
    name_cursor: usize,
    title_cursor: usize,
}

impl Generator {
    fn new(config: KbConfig) -> Self {
        let mut graph = GraphBuilder::new();
        Ontology::dbpedia().materialize(&mut graph);
        Generator {
            rng: Rng::seed_from_u64(config.seed),
            config,
            graph,
            used_iris: FxHashSet::default(),
            labels: FxHashMap::default(),
            facts: Vec::new(),
            countries: Vec::new(),
            cities: Vec::new(),
            persons: Vec::new(),
            actors: Vec::new(),
            musicians: Vec::new(),
            companies: Vec::new(),
            universities: Vec::new(),
            rivers: Vec::new(),
            famous_athlete: None,
            name_cursor: 0,
            title_cursor: 0,
        }
    }

    /// Mints an entity: unique IRI (label + optional disambiguating
    /// qualifier, DBpedia-style), `rdf:type`, `rdfs:label`.
    fn entity(&mut self, label: &str, class: &str) -> Iri {
        let mut iri_str = res::iri(label);
        if self.used_iris.contains(&iri_str) {
            // Qualify like DBpedia: Springfield_(2), Michael_Jordan_(scientist)
            let mut n = 2;
            loop {
                let candidate = format!("{}_({n})", res::iri(label));
                if !self.used_iris.contains(&candidate) {
                    iri_str = candidate;
                    break;
                }
                n += 1;
            }
        }
        self.used_iris.insert(iri_str.clone());
        let iri = Iri::new(iri_str);
        let term = Term::Iri(iri.clone());
        self.graph.add(term.clone(), Term::iri(rdf::TYPE), Term::iri(dbont::iri(class)));
        let label = Literal::lang(label, "en");
        self.graph.add(term, Term::iri(rdfs::LABEL), Term::Literal(label.clone()));
        self.labels.insert(iri.clone(), label);
        iri
    }

    fn obj(&mut self, s: &Iri, prop: &str, o: &Iri) {
        self.graph.add(
            Term::Iri(s.clone()),
            Term::iri(dbont::iri(prop)),
            Term::Iri(o.clone()),
        );
        self.facts.push((s.clone(), o.clone()));
    }

    fn data(&mut self, s: &Iri, prop: &str, value: Literal) {
        self.graph.add(
            Term::Iri(s.clone()),
            Term::iri(dbont::iri(prop)),
            Term::Literal(value),
        );
    }

    // (picking uses the free function `pick_from` so that the RNG and the
    // entity pools can be borrowed disjointly, avoiding a full pool clone
    // per fact — generation stays linear in the number of facts)

    fn date(&mut self, lo_year: i32, hi_year: i32) -> Literal {
        let y = self.rng.gen_range(lo_year..=hi_year);
        let m = self.rng.gen_range(1..=12);
        let d = self.rng.gen_range(1..=28);
        Literal::date(y, m, d)
    }

    // ---------------------------------------------------------------- famous

    /// The fixed entities behind the paper's running examples, plus known
    /// ambiguity cases for the disambiguation step.
    fn famous_entities(&mut self) {
        // Countries/cities referenced by examples.
        let turkey = self.entity("Turkey", "Country");
        let usa = self.entity("United States", "Country");
        let germany = self.entity("Germany", "Country");
        let istanbul = self.entity("Istanbul", "City");
        let ankara = self.entity("Ankara", "City");
        let washington = self.entity("Washington", "City");
        let gary = self.entity("Gary", "City");
        let los_angeles = self.entity("Los Angeles", "City");
        let hodgenville = self.entity("Hodgenville", "City");
        let ulm = self.entity("Ulm", "City");
        let bonn = self.entity("Bonn", "City");
        let brooklyn = self.entity("Brooklyn", "City");
        for (city, country) in [
            (&istanbul, &turkey),
            (&ankara, &turkey),
            (&washington, &usa),
            (&gary, &usa),
            (&los_angeles, &usa),
            (&hodgenville, &usa),
            (&brooklyn, &usa),
            (&ulm, &germany),
            (&bonn, &germany),
        ] {
            let (city, country) = (city.to_owned().clone(), country.to_owned().clone());
            self.obj(&city, "country", &country);
        }
        self.obj(&turkey, "capital", &ankara);
        self.obj(&turkey, "largestCity", &istanbul);
        self.obj(&usa, "capital", &washington);
        self.data(&turkey, "populationTotal", Literal::integer(74_724_269));
        self.data(&ankara, "populationTotal", Literal::integer(4_890_893));
        self.data(&istanbul, "populationTotal", Literal::integer(13_854_740));
        self.data(&usa, "populationTotal", Literal::integer(316_128_839));
        self.data(&germany, "populationTotal", Literal::integer(80_716_000));
        self.countries.extend([turkey, usa, germany.clone()]);
        self.cities.extend([
            istanbul.clone(),
            ankara,
            washington.clone(),
            gary.clone(),
            los_angeles.clone(),
            hodgenville.clone(),
            ulm.clone(),
            bonn.clone(),
            brooklyn.clone(),
        ]);

        // Orhan Pamuk and his books (paper Figure 1 and §2 examples).
        let pamuk = self.entity("Orhan Pamuk", "Writer");
        self.obj(&pamuk, "birthPlace", &istanbul);
        self.data(&pamuk, "birthDate", Literal::date(1952, 6, 7));
        for (title, pages) in
            [("Snow", 432), ("The Museum of Innocence", 536), ("My Name is Red", 417)]
        {
            let book = self.entity(title, "Book");
            self.obj(&book, "author", &pamuk);
            self.data(&book, "numberOfPages", Literal::integer(pages));
        }
        self.persons.push(pamuk);

        // Michael Jordan, basketball player, height 1.98 (paper §2.2.2) —
        // plus a scientist namesake to exercise disambiguation (§2.2.5).
        // The scientist is minted FIRST (getting the unqualified IRI and the
        // front slot in the label index) so that string similarity alone
        // cannot find the famous reading: only the page-link centrality of
        // §2.2.5 resolves "Michael Jordan" to the athlete.
        let mj2 = self.entity("Michael Jordan", "Scientist");
        self.data(&mj2, "height", Literal::double(1.78));
        self.obj(&mj2, "birthPlace", &los_angeles);
        // The scientist namesake has a residence fact; the famous athlete
        // does not — the benchmark uses this to probe disambiguation.
        self.obj(&mj2, "residence", &los_angeles);
        let mj = self.entity("Michael Jordan", "BasketballPlayer");
        self.data(&mj, "height", Literal::double(1.98));
        self.obj(&mj, "birthPlace", &brooklyn);
        self.data(&mj, "birthDate", Literal::date(1963, 2, 17));
        self.famous_athlete = Some(mj.clone());
        self.persons.extend([mj, mj2]);

        // Abraham Lincoln (paper §2.2.3: "Where did Abraham Lincoln die?").
        let lincoln = self.entity("Abraham Lincoln", "President");
        self.obj(&lincoln, "birthPlace", &hodgenville);
        self.obj(&lincoln, "deathPlace", &washington);
        self.data(&lincoln, "birthDate", Literal::date(1809, 2, 12));
        self.data(&lincoln, "deathDate", Literal::date(1865, 4, 15));
        self.persons.push(lincoln);

        // Michael Jackson, born in Gary (paper §2.2.3).
        let jackson = self.entity("Michael Jackson", "MusicalArtist");
        self.obj(&jackson, "birthPlace", &gary);
        self.obj(&jackson, "deathPlace", &los_angeles);
        self.data(&jackson, "birthDate", Literal::date(1958, 8, 29));
        self.data(&jackson, "deathDate", Literal::date(2009, 6, 25));
        let thriller = self.entity("Thriller", "Album");
        self.obj(&thriller, "artist", &jackson);
        self.musicians.push(jackson.clone());
        self.persons.push(jackson);

        // Frank Herbert (paper §5: "Is Frank Herbert still alive?").
        let herbert = self.entity("Frank Herbert", "Writer");
        self.data(&herbert, "birthDate", Literal::date(1920, 10, 8));
        self.data(&herbert, "deathDate", Literal::date(1986, 2, 11));
        let dune = self.entity("Dune", "Book");
        self.obj(&dune, "author", &herbert);
        self.data(&dune, "numberOfPages", Literal::integer(412));
        self.persons.push(herbert);

        // Einstein & Beethoven (birth-place questions).
        let einstein = self.entity("Albert Einstein", "Scientist");
        self.obj(&einstein, "birthPlace", &ulm);
        self.data(&einstein, "birthDate", Literal::date(1879, 3, 14));
        let beethoven = self.entity("Ludwig van Beethoven", "MusicalArtist");
        self.obj(&beethoven, "birthPlace", &bonn);
        self.data(&beethoven, "birthDate", Literal::date(1770, 12, 17));
        self.persons.extend([einstein, beethoven.clone()]);
        self.musicians.push(beethoven);

        // James Cameron and Titanic (who-directed questions).
        let cameron = self.entity("James Cameron", "FilmDirector");
        let titanic = self.entity("Titanic", "Film");
        let avatar = self.entity("Avatar", "Film");
        self.obj(&titanic, "director", &cameron);
        self.obj(&avatar, "director", &cameron);
        self.data(&titanic, "releaseDate", Literal::date(1997, 12, 19));
        self.persons.push(cameron);

        // A spouse pair for who-is-the-wife questions.
        let obama = self.entity("Barack Obama", "President");
        let michelle = self.entity("Michelle Obama", "Person");
        self.obj(&obama, "spouse", &michelle);
        self.obj(&michelle, "spouse", &obama);
        let usa_iri = usa_of(self);
        self.obj(&usa_iri, "leaderName", &obama);
        self.persons.extend([obama, michelle]);

        // Ambiguous Springfields in three countries.
        for (i, country) in self.countries.clone().iter().take(3).enumerate() {
            let springfield = self.entity(names::AMBIGUOUS_CITY, "City");
            self.obj(&springfield, "country", country);
            self.data(&springfield, "populationTotal", Literal::integer(30_000 + (i as i64) * 85_000));
            self.cities.push(springfield);
        }
    }

    // ------------------------------------------------------------------ bulk

    fn bulk_entities(&mut self) {
        self.gen_countries_and_cities();
        self.gen_companies_and_universities();
        self.gen_people_and_works();
        self.gen_nature();
    }

    fn gen_countries_and_cities(&mut self) {
        let existing: FxHashSet<String> = self
            .countries
            .iter()
            .filter_map(|c| self.label(c))
            .collect();
        let pool: Vec<&str> = names::COUNTRY_NAMES
            .iter()
            .copied()
            .filter(|n| !existing.contains(*n))
            .collect();
        let n_countries = self.config.countries.saturating_sub(self.countries.len());
        let mut city_pool: Vec<&str> = names::CITY_NAMES
            .iter()
            .copied()
            .filter(|c| {
                !self.used_iris.contains(&res::iri(c))
            })
            .collect();

        for (idx, name) in pool.iter().take(n_countries).enumerate() {
            let country = self.entity(name, "Country");
            let pop = self.rng.gen_range(1_000_000..150_000_000);
            self.data(&country, "populationTotal", Literal::integer(pop));
            let area = self.rng.gen_range(10_000.0..2_000_000.0f64).round();
            self.data(&country, "areaTotal", Literal::double(area));
            if idx < names::LANGUAGE_NAMES.len() {
                let lang = self.entity(names::LANGUAGE_NAMES[idx], "Language");
                self.obj(&country, "officialLanguage", &lang);
            }
            let cur_name = names::CURRENCY_NAMES[idx % names::CURRENCY_NAMES.len()];
            let cur_iri = res::iri(cur_name);
            let currency = if self.used_iris.contains(&cur_iri) {
                Iri::new(cur_iri)
            } else {
                self.entity(cur_name, "Currency")
            };
            self.obj(&country, "currency", &currency);

            for c in 0..self.config.cities_per_country {
                let name = match city_pool.pop() {
                    Some(n) => n.to_string(),
                    None => format!(
                        "New {}",
                        names::CITY_NAMES[self.rng.gen_range(0..names::CITY_NAMES.len())]
                    ),
                };
                let city = self.entity(&name, "City");
                self.obj(&city, "country", &country);
                let pop = self.rng.gen_range(50_000..15_000_000);
                self.data(&city, "populationTotal", Literal::integer(pop));
                if c == 0 {
                    self.obj(&country, "capital", &city);
                }
                self.cities.push(city);
            }
            self.countries.push(country);
        }
    }

    fn gen_companies_and_universities(&mut self) {
        for i in 0..self.config.companies {
            let stem = names::COMPANY_STEMS[i % names::COMPANY_STEMS.len()];
            let suffix = names::COMPANY_SUFFIXES[(i / names::COMPANY_STEMS.len() + i)
                % names::COMPANY_SUFFIXES.len()];
            let company = self.entity(&format!("{stem} {suffix}"), "Company");
            let hq = pick_from(&mut self.rng, &self.cities);
            self.obj(&company, "headquarter", &hq);
            self.obj(&company, "location", &hq);
            let staff = self.rng.gen_range(50..250_000);
            self.data(&company, "numberOfEmployees", Literal::integer(staff));
            let founding = self.date(1850, 2005);
            self.data(&company, "foundingDate", founding);
            self.companies.push(company);
        }
        for i in 0..self.config.universities {
            let city = pick_from(&mut self.rng, &self.cities);
            let city_label = self.label(&city).unwrap_or_else(|| format!("City{i}"));
            let form = names::UNIVERSITY_CITY_FORMS[i % names::UNIVERSITY_CITY_FORMS.len()];
            let label = form.replace("{}", &city_label);
            let uni = self.entity(&label, "University");
            self.obj(&uni, "location", &city);
            let founded = self.date(1400, 1990);
            self.data(&uni, "foundingDate", founded);
            self.universities.push(uni);
        }
    }

    fn person_name(&mut self, used: &mut FxHashSet<String>) -> String {
        for _ in 0..32 {
            let f = names::FIRST_NAMES[self.rng.gen_range(0..names::FIRST_NAMES.len())];
            let l = names::LAST_NAMES[self.rng.gen_range(0..names::LAST_NAMES.len())];
            let name = format!("{f} {l}");
            if used.insert(name.clone()) {
                return name;
            }
        }
        // Pool exhausted (huge scale factors): indexed walk over a
        // deterministic middle-initial scheme, with a numeral-qualified
        // variant backing it up so the candidate space is unbounded. The
        // cursor persists across calls — every index is visited at most
        // once over the whole generation, so the walk stays amortized O(1)
        // per draw instead of re-scanning the occupied prefix each call.
        loop {
            let k = self.name_cursor;
            self.name_cursor += 1;
            let f = names::FIRST_NAMES[k % names::FIRST_NAMES.len()];
            let l = names::LAST_NAMES[(k / names::FIRST_NAMES.len()) % names::LAST_NAMES.len()];
            let initial = (b'A' + (k % 26) as u8) as char;
            let name = format!("{f} {initial}. {l}");
            if used.insert(name.clone()) {
                return name;
            }
            let name = format!("{f} {initial}. {l} {k}");
            if used.insert(name.clone()) {
                return name;
            }
        }
    }

    fn title(&mut self, used: &mut FxHashSet<String>) -> String {
        // Rejection-sample the pool; at large scale factors the combination
        // space (|adjectives| × |nouns| × 2) is exhausted, so fall back to a
        // deterministic numbered variant instead of looping forever.
        for _ in 0..32 {
            let a = names::TITLE_ADJECTIVES[self.rng.gen_range(0..names::TITLE_ADJECTIVES.len())];
            let n = names::TITLE_NOUNS[self.rng.gen_range(0..names::TITLE_NOUNS.len())];
            let candidate = if self.rng.gen_bool(0.5) {
                format!("The {a} {n}")
            } else {
                format!("{a} {n}")
            };
            if used.insert(candidate.clone()) {
                return candidate;
            }
        }
        loop {
            let k = self.title_cursor;
            self.title_cursor += 1;
            let a = names::TITLE_ADJECTIVES[k % names::TITLE_ADJECTIVES.len()];
            let n = names::TITLE_NOUNS[(k / names::TITLE_ADJECTIVES.len()) % names::TITLE_NOUNS.len()];
            let candidate = format!("The {a} {n} {k}");
            if used.insert(candidate.clone()) {
                return candidate;
            }
        }
    }

    fn new_person(&mut self, class: &str, used_names: &mut FxHashSet<String>) -> Iri {
        let name = self.person_name(used_names);
        let person = self.entity(&name, class);
        let birth_city = pick_from(&mut self.rng, &self.cities);
        self.obj(&person, "birthPlace", &birth_city);
        let birth = self.date(1850, 1995);
        self.data(&person, "birthDate", birth.clone());
        // Half the people have died; deaths occur after births.
        if self.rng.gen_bool(0.5) {
            let death_city = pick_from(&mut self.rng, &self.cities);
            self.obj(&person, "deathPlace", &death_city);
            let birth_year: i32 = birth.lexical_form()[..4].parse().unwrap();
            let death = self.date(birth_year + 20, birth_year + 90);
            self.data(&person, "deathDate", death);
        } else {
            // The living get heights and residences.
            let height = (self.rng.gen_range(1.50..2.05f64) * 100.0).round() / 100.0;
            self.data(&person, "height", Literal::double(height));
            let residence = pick_from(&mut self.rng, &self.cities);
            self.obj(&person, "residence", &residence);
        }
        self.persons.push(person.clone());
        person
    }

    fn gen_people_and_works(&mut self) {
        let mut used_names: FxHashSet<String> = FxHashSet::default();
        let mut used_titles: FxHashSet<String> = FxHashSet::default();

        for _ in 0..self.config.writers {
            let writer = self.new_person("Writer", &mut used_names);
            for _ in 0..self.rng.gen_range(1..=4) {
                let title = self.title(&mut used_titles);
                let book = self.entity(&title, "Book");
                self.obj(&book, "author", &writer);
                let pages = self.rng.gen_range(90..900);
                self.data(&book, "numberOfPages", Literal::integer(pages));
                if !self.companies.is_empty() && self.rng.gen_bool(0.7) {
                    let publisher = pick_from(&mut self.rng, &self.companies);
                    self.obj(&book, "publisher", &publisher);
                }
                let released = self.date(1900, 2012);
                self.data(&book, "releaseDate", released);
            }
        }

        for _ in 0..self.config.actors {
            let actor = self.new_person("Actor", &mut used_names);
            self.actors.push(actor);
        }

        for _ in 0..self.config.directors {
            let director = self.new_person("FilmDirector", &mut used_names);
            for _ in 0..self.rng.gen_range(1..=3) {
                let title = self.title(&mut used_titles);
                let film = self.entity(&title, "Film");
                self.obj(&film, "director", &director);
                let released = self.date(1930, 2012);
                self.data(&film, "releaseDate", released);
                for _ in 0..self.rng.gen_range(1..=3) {
                    let star = pick_from(&mut self.rng, &self.actors);
                    self.obj(&film, "starring", &star);
                }
                if self.rng.gen_bool(0.4) {
                    let producer = pick_from(&mut self.rng, &self.persons);
                    self.obj(&film, "producer", &producer);
                }
            }
        }

        for _ in 0..self.config.musicians {
            let musician = self.new_person("MusicalArtist", &mut used_names);
            for _ in 0..self.rng.gen_range(1..=2) {
                let title = self.title(&mut used_titles);
                let album = self.entity(&title, "Album");
                self.obj(&album, "artist", &musician);
                let released = self.date(1950, 2012);
                self.data(&album, "releaseDate", released);
            }
            for _ in 0..self.rng.gen_range(1..=3) {
                let title = self.title(&mut used_titles);
                let song = self.entity(&title, "Song");
                self.obj(&song, "writer", &musician);
                if self.rng.gen_bool(0.5) {
                    self.obj(&song, "musicComposer", &musician);
                }
            }
            self.musicians.push(musician);
        }

        for _ in 0..self.config.players {
            let player = self.new_person("BasketballPlayer", &mut used_names);
            // Players are tall; overwrite/set height explicitly.
            let height = (self.rng.gen_range(1.85..2.20f64) * 100.0).round() / 100.0;
            self.data(&player, "height", Literal::double(height));
        }

        for _ in 0..self.config.scientists {
            let scientist = self.new_person("Scientist", &mut used_names);
            if !self.universities.is_empty() {
                let uni = pick_from(&mut self.rng, &self.universities);
                self.obj(&scientist, "almaMater", &uni);
            }
        }

        // Spouses among the living, mayors and leaders, founders, key people.
        let persons = self.persons.clone();
        for chunk in persons.chunks(7) {
            if chunk.len() >= 2 && self.rng.gen_bool(0.4) {
                self.obj(&chunk[0], "spouse", &chunk[1]);
                self.obj(&chunk[1], "spouse", &chunk[0]);
            }
            if chunk.len() >= 3 && self.rng.gen_bool(0.3) {
                self.obj(&chunk[0], "child", &chunk[2]);
            }
        }
        let cities = self.cities.clone();
        let mut used_mayor_names = used_names.clone();
        for city in cities.iter() {
            if self.rng.gen_bool(0.3) {
                let mayor = self.new_person("Mayor", &mut used_mayor_names);
                self.obj(city, "mayor", &mayor);
            }
        }
        let countries = self.countries.clone();
        for country in countries.iter().skip(1) {
            // skip USA which has Obama
            if self.rng.gen_bool(0.6) {
                let leader = self.new_person("Politician", &mut used_mayor_names);
                self.obj(country, "leaderName", &leader);
            }
        }
        let companies = self.companies.clone();
        for company in companies.iter() {
            if self.rng.gen_bool(0.6) {
                let founder = pick_from(&mut self.rng, &self.persons);
                self.obj(company, "foundedBy", &founder);
                self.obj(company, "keyPerson", &founder);
            }
        }

        // Video games by companies.
        for _ in 0..self.config.games {
            let title = self.title(&mut used_titles);
            let game = self.entity(&title, "VideoGame");
            if !self.companies.is_empty() {
                let dev = pick_from(&mut self.rng, &self.companies);
                self.obj(&game, "developer", &dev);
            }
            let released = self.date(1980, 2012);
            self.data(&game, "releaseDate", released);
        }

        // Bands with members.
        for i in 0..self.config.bands {
            let stem = names::TITLE_NOUNS[i % names::TITLE_NOUNS.len()];
            let band = self.entity(&format!("The {stem}s"), "Band");
            for _ in 0..self.rng.gen_range(2..=4) {
                if self.musicians.is_empty() {
                    break;
                }
                let member = pick_from(&mut self.rng, &self.musicians);
                self.obj(&band, "bandMember", &member);
            }
        }
    }

    fn gen_nature(&mut self) {
        for i in 0..self.config.rivers {
            let stem = names::RIVER_STEMS[i % names::RIVER_STEMS.len()];
            let suffix = if i / names::RIVER_STEMS.len() == 0 { String::new() } else {
                format!(" {}", i / names::RIVER_STEMS.len() + 1)
            };
            let river = self.entity(&format!("{stem}a River{suffix}"), "River");
            let length = self.rng.gen_range(80.0..3600.0f64).round();
            self.data(&river, "length", Literal::double(length));
            let country = pick_from(&mut self.rng, &self.countries);
            self.obj(&river, "mouthCountry", &country);
            if self.rng.gen_bool(0.5) {
                let bridge = self.entity(&format!("{stem}a Bridge"), "Bridge");
                self.obj(&bridge, "crosses", &river);
            }
            self.rivers.push(river);
        }
        for i in 0..self.config.mountains {
            let stem = names::MOUNT_STEMS[i % names::MOUNT_STEMS.len()];
            let mountain = self.entity(&format!("Mount {stem}on"), "Mountain");
            let elevation = self.rng.gen_range(900.0..8500.0f64).round();
            self.data(&mountain, "elevation", Literal::double(elevation));
            let country = pick_from(&mut self.rng, &self.countries);
            self.obj(&mountain, "country", &country);
        }
        for i in 0..self.config.lakes {
            let stem = names::MOUNT_STEMS[(i * 3 + 1) % names::MOUNT_STEMS.len()];
            let lake = self.entity(&format!("Lake {stem}ia"), "Lake");
            let depth = self.rng.gen_range(8.0..1600.0f64).round();
            self.data(&lake, "depth", Literal::double(depth));
            let country = pick_from(&mut self.rng, &self.countries);
            self.obj(&lake, "country", &country);
        }
    }

    // ------------------------------------------------------------ page links

    /// Derives `dbont:wikiPageWikiLink` triples: one per object-property fact
    /// (both directions), a popularity boost for the famous athlete (every
    /// basketball player links to him), and random noise links.
    fn page_links(&mut self) {
        let link = Term::iri(vocab::WIKI_PAGE_LINK);
        for (s, o) in std::mem::take(&mut self.facts) {
            if s.as_str().starts_with(res::NS) && o.as_str().starts_with(res::NS) {
                self.graph.add(Term::Iri(s.clone()), link.clone(), Term::Iri(o.clone()));
                self.graph.add(Term::Iri(o), link.clone(), Term::Iri(s));
            }
        }

        if let Some(mj) = self.famous_athlete.clone() {
            for p in self.persons.clone() {
                if p != mj && self.rng.gen_bool(0.25) {
                    self.graph.add(Term::Iri(p), link.clone(), Term::Iri(mj.clone()));
                }
            }
        }

        let n_noise = (self.persons.len() as f64 * self.config.link_noise) as usize;
        for _ in 0..n_noise {
            let a = pick_from(&mut self.rng, &self.persons);
            let b = pick_from(&mut self.rng, &self.cities);
            self.graph.add(Term::Iri(a), link.clone(), Term::Iri(b));
        }
    }

    fn label(&self, iri: &Iri) -> Option<String> {
        self.labels.get(iri).map(|l| l.lexical_form().to_string())
    }
}

/// Uniformly picks one IRI from a pool (disjoint-borrow-friendly helper).
fn pick_from(rng: &mut Rng, pool: &[Iri]) -> Iri {
    pool[rng.gen_range(0..pool.len())].clone()
}

/// Helper: the United States IRI (exists after `famous_entities`).
fn usa_of(gen: &Generator) -> Iri {
    gen.countries
        .iter()
        .find(|c| c.as_str().ends_with("United_States"))
        .cloned()
        .expect("USA generated")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&KbConfig::tiny());
        let b = generate(&KbConfig::tiny());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.entity_count(), b.entity_count());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn default_scale_kb_matches_the_pinned_fingerprint() {
        // The rejection-sampling fast path never exhausts its pools at
        // default scale, so the persistent-cursor fallback must leave the
        // default KB byte-identical to the pre-refactor generator.
        let kb = generate(&KbConfig::default());
        assert_eq!(
            kb.fingerprint(),
            DEFAULT_KB_FINGERPRINT,
            "default-scale KB drifted from the pinned fingerprint"
        );
    }

    #[test]
    fn name_fallback_walk_is_unique_and_single_pass() {
        // Force the fallback by pre-filling `used` with every 2-part name
        // the rejection sampler could draw; the indexed walk must mint
        // unique names while visiting each cursor index at most once.
        let mut gen = Generator::new(KbConfig::tiny());
        let mut used: FxHashSet<String> = FxHashSet::default();
        for f in names::FIRST_NAMES {
            for l in names::LAST_NAMES {
                used.insert(format!("{f} {l}"));
            }
        }
        let saturated = used.len();
        let draws = 5_000;
        for _ in 0..draws {
            let name = gen.person_name(&mut used);
            assert!(used.contains(&name));
        }
        assert_eq!(used.len(), saturated + draws, "every draw minted a fresh name");
        // Each cursor index yields at most two candidates and is never
        // revisited, so the walk length is linear in the number of draws —
        // the old per-call `k = used.len()` restart re-scanned this prefix
        // on every draw.
        assert!(
            gen.name_cursor <= draws,
            "cursor advanced {} times for {draws} draws",
            gen.name_cursor
        );
        let mut titles: FxHashSet<String> = FxHashSet::default();
        for a in names::TITLE_ADJECTIVES {
            for n in names::TITLE_NOUNS {
                titles.insert(format!("The {a} {n}"));
                titles.insert(format!("{a} {n}"));
            }
        }
        let saturated = titles.len();
        for _ in 0..draws {
            gen.title(&mut titles);
        }
        assert_eq!(titles.len(), saturated + draws);
        assert_eq!(gen.title_cursor, draws, "numbered titles collide with nothing");
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&KbConfig::tiny());
        let b = generate(&KbConfig { seed: 42, ..KbConfig::tiny() });
        assert_ne!(a.len(), b.len());
    }

    #[test]
    fn paper_examples_are_queryable() {
        let kb = generate(&KbConfig::tiny());
        // Which book is written by Orhan Pamuk → 3 books via dbont:author.
        let sols = kb
            .query("SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }")
            .unwrap()
            .into_solutions().unwrap();
        assert_eq!(sols.len(), 3);
        // Michael Jordan's height (the basketball player holds the
        // qualified IRI; the scientist namesake was minted first).
        let sols = kb
            .query("SELECT ?h { <http://dbpedia.org/resource/Michael_Jordan_(2)> dbont:height ?h }")
            .unwrap()
            .into_solutions().unwrap();
        assert_eq!(sols.first().unwrap().as_literal().unwrap().as_f64(), Some(1.98));
        // Where did Abraham Lincoln die.
        let sols = kb
            .query("SELECT ?p { res:Abraham_Lincoln dbont:deathPlace ?p }")
            .unwrap()
            .into_solutions().unwrap();
        assert_eq!(kb.label_of(sols.first().unwrap().as_iri().unwrap()), Some("Washington"));
    }

    #[test]
    fn ambiguous_labels_have_multiple_entities() {
        let kb = generate(&KbConfig::tiny());
        assert!(kb.entities_with_label("Springfield").len() >= 3);
        assert_eq!(kb.entities_with_label("Michael Jordan").len(), 2);
    }

    #[test]
    fn famous_athlete_has_higher_degree_than_namesake() {
        let kb = generate(&KbConfig::default());
        let jordans = kb.entities_with_label("Michael Jordan");
        let athlete = jordans.iter().find(|i| kb.is_instance_of(i, "Athlete")).unwrap();
        let scientist = jordans.iter().find(|i| kb.is_instance_of(i, "Scientist")).unwrap();
        assert!(
            kb.page_degree(athlete) > kb.page_degree(scientist),
            "athlete {} vs scientist {}",
            kb.page_degree(athlete),
            kb.page_degree(scientist)
        );
    }

    #[test]
    fn every_entity_has_type_and_label() {
        let kb = generate(&KbConfig::tiny());
        for (_, iris) in kb.labels_iter() {
            for iri in iris {
                assert!(!kb.classes_of(iri).is_empty(), "{iri:?} lacks a class");
            }
        }
    }

    #[test]
    fn default_config_reaches_realistic_scale() {
        let kb = generate(&KbConfig::default());
        assert!(kb.entity_count() > 800, "got {}", kb.entity_count());
        assert!(kb.len() > 8_000, "got {} triples", kb.len());
    }

    #[test]
    fn page_links_exist_for_facts() {
        let kb = generate(&KbConfig::tiny());
        let pamuk = Iri::new(res::iri("Orhan Pamuk"));
        let snow = Iri::new(res::iri("Snow"));
        assert!(kb.are_linked(&pamuk, &snow));
    }
}

