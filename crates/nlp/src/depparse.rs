//! Rule-based dependency parser for interrogative English.
//!
//! A deterministic cascade purpose-built for the question register:
//!
//! 1. chunk noun phrases and build their internal edges (`det`, `nn`,
//!    `amod`, `num`, `poss`);
//! 2. classify verb tokens (be/do auxiliaries, modals, content verbs,
//!    reduced-relative participles);
//! 3. pick the clause structure (content-verb clause, copular clause,
//!    bare copula) and attach subjects, objects, agents and adverbs;
//! 4. collapse prepositions into `prep_X` edges (`of` attaches to the
//!    preceding noun, everything else to the clause head).
//!
//! Sentences outside the covered archetypes fall back to a flat parse with
//! `dep` edges and no committed root — downstream triple extraction rejects
//! those, which is exactly the paper's "question not attempted" bucket and
//! the source of its low recall.

use crate::graph::{DepGraph, DepRel};
use crate::lexicon;
use crate::tokens::{PosTag, Token};

/// Parses a tagged sentence into a dependency graph.
pub fn parse(tokens: Vec<Token>) -> DepGraph {
    Parser::new(tokens).run()
}

/// Tokenizes, tags and parses a raw sentence.
pub fn parse_sentence(sentence: &str) -> DepGraph {
    parse(crate::tagger::tag_sentence(sentence))
}

/// A noun-phrase chunk over `[start, end]` with a designated head.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    start: usize,
    end: usize,
    head: usize,
}

struct Parser {
    tokens: Vec<Token>,
    /// Per token, its head and relation once attached.
    heads: Vec<Option<(usize, DepRel)>>,
    /// The attached tokens, in attachment order.
    attached: Vec<usize>,
    chunks: Vec<Chunk>,
    /// Per token, the index of the chunk that contains it.
    chunk_of: Vec<Option<usize>>,
    /// The clause root once chosen; it never gets a head.
    root: Option<usize>,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        let n = tokens.len();
        Parser {
            tokens,
            heads: vec![None; n],
            attached: Vec::new(),
            chunks: Vec::new(),
            chunk_of: vec![None; n],
            root: None,
        }
    }

    fn pos(&self, i: usize) -> PosTag {
        self.tokens[i].pos
    }

    fn lower(&self, i: usize) -> String {
        self.tokens[i].lower()
    }

    fn attach(&mut self, head: usize, dependent: usize, rel: DepRel) {
        // One head per dependent: first attachment wins. The root stays
        // headless, so no attachment closes a cycle through it.
        if self.heads[dependent].is_some() || head == dependent || self.root == Some(dependent) {
            return;
        }
        self.heads[dependent] = Some((head, rel));
        self.attached.push(dependent);
    }

    fn run(mut self) -> DepGraph {
        self.chunks = self.chunk_nps();
        for (c, chunk) in self.chunks.iter().enumerate() {
            self.chunk_of[chunk.start..=chunk.end].fill(Some(c));
        }
        self.build_np_internal_edges();

        let verbs = self.verb_analysis();
        let root = match verbs.main {
            Some(main) => {
                self.attach_verbal_clause(main, &verbs);
                Some(main)
            }
            None => self.attach_copular_clause(&verbs),
        };

        self.root = root;
        if let Some(root) = root {
            self.attach_partmods(&verbs);
            self.attach_preps(root, &verbs);
            self.attach_adverbs(root);
            self.attach_leftovers(root);
        }

        DepGraph::new(self.tokens, self.heads, &self.attached, root)
    }

    /// Maximal noun-phrase chunks. A chunk is
    /// `(DT|WDT|PRP$)? (JJ|CD|NN.*|POS)* NN.*` with head = last noun, or a
    /// standalone pronoun (`who`, `me`).
    fn chunk_nps(&self) -> Vec<Chunk> {
        let n = self.tokens.len();
        let mut chunks = Vec::new();
        let mut i = 0;
        while i < n {
            let tag = self.pos(i);
            if matches!(tag, PosTag::Wp | PosTag::Prp) {
                chunks.push(Chunk { start: i, end: i, head: i });
                i += 1;
                continue;
            }
            let starts_np = matches!(tag, PosTag::Dt | PosTag::Wdt | PosTag::PrpPoss)
                || tag.is_adjective()
                || tag == PosTag::Cd
                || tag.is_noun();
            if !starts_np {
                i += 1;
                continue;
            }
            let start = i;
            let mut last_noun = None;
            while i < n {
                let t = self.pos(i);
                let continues = matches!(t, PosTag::Dt | PosTag::Wdt | PosTag::PrpPoss)
                    || t.is_adjective()
                    || t == PosTag::Cd
                    || t.is_noun()
                    || (t == PosTag::Pos && last_noun.is_some());
                if !continues {
                    break;
                }
                // A determiner mid-chunk starts a new NP ("all the books"
                // keeps one chunk since both are at the front), and an
                // adjective after a noun is a predicate, not a modifier
                // ("Is Ankara bigger ..."), so both end the chunk.
                if (matches!(t, PosTag::Dt | PosTag::Wdt) || t.is_adjective())
                    && last_noun.is_some()
                {
                    break;
                }
                if t.is_noun() {
                    last_noun = Some(i);
                }
                i += 1;
            }
            match last_noun {
                Some(head) => chunks.push(Chunk { start, end: i - 1, head }),
                None => {
                    // Determiner/adjective run with no noun (e.g. "How tall"):
                    // not an NP; rewind past it token by token.
                    i = start + 1;
                }
            }
        }
        chunks
    }

    fn build_np_internal_edges(&mut self) {
        let chunks = self.chunks.clone();
        for c in &chunks {
            for i in c.start..=c.end {
                if i == c.head {
                    continue;
                }
                match self.pos(i) {
                    PosTag::Dt | PosTag::Wdt => self.attach(c.head, i, DepRel::Det),
                    PosTag::PrpPoss => self.attach(c.head, i, DepRel::Poss),
                    PosTag::Cd => self.attach(c.head, i, DepRel::Num),
                    PosTag::Pos => {} // the clitic hangs off the possessor below
                    t if t.is_adjective() => self.attach(c.head, i, DepRel::Amod),
                    t if t.is_noun() => {
                        // A noun followed by 's is a possessor; otherwise a
                        // compound modifier.
                        if i < c.end && self.pos(i + 1) == PosTag::Pos {
                            self.attach(c.head, i, DepRel::Poss);
                        } else {
                            self.attach(c.head, i, DepRel::Nn);
                        }
                    }
                    _ => {}
                }
            }
            // Attach the possessive clitic to its possessor.
            for i in c.start..=c.end {
                if self.pos(i) == PosTag::Pos && i > c.start {
                    self.attach(i - 1, i, DepRel::Dep);
                }
            }
        }
    }

    /// The chunk that contains token `i`, if any.
    fn chunk_at(&self, i: usize) -> Option<&Chunk> {
        self.chunk_of.get(i).copied().flatten().map(|c| &self.chunks[c])
    }

    fn chunk_heads(&self) -> Vec<usize> {
        self.chunks.iter().map(|c| c.head).collect()
    }

    fn verb_analysis(&self) -> VerbAnalysis {
        let mut be = Vec::new();
        let mut do_aux = Vec::new();
        let mut modals = Vec::new();
        let mut content = Vec::new();
        for i in 0..self.tokens.len() {
            if self.chunk_at(i).is_some() {
                continue;
            }
            let tag = self.pos(i);
            let word = self.lower(i);
            if lexicon::is_be_form(&word) {
                be.push(i);
            } else if lexicon::is_do_form(&word) {
                do_aux.push(i);
            } else if tag == PosTag::Md {
                modals.push(i);
            } else if tag.is_verb() {
                content.push(i);
            }
        }

        // Reduced-relative participles: a VBN directly after an NP with no
        // be-form in between ("books written by X", "a film directed by Y").
        let mut partmods = Vec::new();
        let mut mains: Vec<usize> = Vec::new();
        for &v in &content {
            let is_partmod = self.pos(v) == PosTag::Vbn
                && v > 0
                && self.chunk_at(v - 1).is_some_and(|c| c.end == v - 1)
                && be.first().is_none_or(|&b| b >= v);
            if is_partmod {
                partmods.push(v);
            } else {
                mains.push(v);
            }
        }
        let main = mains.last().copied();
        VerbAnalysis { be, do_aux, modals, content, partmods, main }
    }

    /// Clause with a content verb: attach auxiliaries, subject, objects.
    fn attach_verbal_clause(&mut self, main: usize, verbs: &VerbAnalysis) {
        let passive = self.pos(main) == PosTag::Vbn && verbs.be.first().is_some_and(|&b| b < main);

        for &b in &verbs.be {
            if b < main {
                let rel = if passive { DepRel::Auxpass } else { DepRel::Aux };
                self.attach(main, b, rel);
            }
        }
        for &d in &verbs.do_aux {
            if d < main {
                self.attach(main, d, DepRel::Aux);
            }
        }
        for &m in &verbs.modals {
            if m < main {
                self.attach(main, m, DepRel::Aux);
            }
        }

        // NPs before/after the verb (heads only, excluding partmod NPs'
        // internal structure — heads are fine).
        let heads = self.chunk_heads();
        let before: Vec<usize> = heads.iter().copied().filter(|&h| h < main).collect();
        let after: Vec<usize> = heads.iter().copied().filter(|&h| h > main).collect();

        let has_do = verbs.do_aux.iter().any(|&d| d < main);
        if passive {
            // "Which book is written by X": subject = NP nearest before.
            if let Some(&subj) = before.last() {
                self.attach(main, subj, DepRel::Nsubjpass);
            }
        } else if has_do && before.len() >= 2 {
            // "Which films did Spielberg direct?": fronted object + subject.
            let subj = *before.last().unwrap();
            self.attach(main, subj, DepRel::Nsubj);
            let fronted = before[before.len() - 2];
            self.attach(main, fronted, DepRel::Dobj);
        } else if let Some(&subj) = before.last() {
            self.attach(main, subj, DepRel::Nsubj);
        }

        // Direct object: first NP after the verb not introduced by a
        // preposition and not owned by a partmod participle.
        let partmod_after_main = verbs.partmods.iter().copied().find(|&p| p > main);
        for &obj in &after {
            let chunk_start = self.chunk_at(obj).map_or(obj, |c| c.start);
            let preceded_by_prep = chunk_start > 0
                && matches!(self.pos(chunk_start - 1), PosTag::In | PosTag::To);
            let preceded_by_partmod = partmod_after_main.is_some_and(|p| p < chunk_start);
            if !preceded_by_prep && !preceded_by_partmod {
                // "Give me all books": pronoun right after the verb is iobj
                // when another NP follows.
                if self.pos(obj) == PosTag::Prp && after.len() > 1 {
                    self.attach(main, obj, DepRel::Iobj);
                    continue;
                }
                self.attach(main, obj, DepRel::Dobj);
                break;
            }
        }
    }

    /// Copular clause (no content verb): root is the predicate nominal or
    /// adjective, with `cop` + `nsubj` children.
    fn attach_copular_clause(&mut self, verbs: &VerbAnalysis) -> Option<usize> {
        let &be = verbs.be.first()?;
        let heads = self.chunk_heads();

        // "How tall is E?" — fronted predicate adjective.
        let fronted_adj =
            (0..be).find(|&i| self.pos(i).is_adjective() && self.chunk_at(i).is_none());
        if let Some(adj) = fronted_adj {
            let subj = heads.iter().copied().find(|&h| h > be)?;
            self.attach(adj, be, DepRel::Cop);
            self.attach(adj, subj, DepRel::Nsubj);
            return Some(adj);
        }

        let before: Vec<usize> = heads.iter().copied().filter(|&h| h < be).collect();
        let after: Vec<usize> = heads.iter().copied().filter(|&h| h > be).collect();

        if be == 0 || before.is_empty() {
            // Polar copular: "Is Frank Herbert still alive?",
            // "Is Ankara the capital of Turkey?"
            let subj = *after.first()?;
            // Predicate: trailing adjective or a second NP.
            let pred_adj = ((be + 1)..self.tokens.len())
                .find(|&i| self.pos(i).is_adjective() && self.chunk_at(i).is_none());
            if let Some(adj) = pred_adj {
                self.attach(adj, be, DepRel::Cop);
                self.attach(adj, subj, DepRel::Nsubj);
                return Some(adj);
            }
            if after.len() >= 2 {
                let pred = after[1];
                self.attach(pred, be, DepRel::Cop);
                self.attach(pred, subj, DepRel::Nsubj);
                return Some(pred);
            }
            // "Is there X?" and friends: no structure we can commit to.
            return None;
        }

        // "What is the height of E?" / "Who is the mayor of Berlin?"
        let subj = *before.last().unwrap();
        if let Some(&pred) = after.first() {
            self.attach(pred, be, DepRel::Cop);
            self.attach(pred, subj, DepRel::Nsubj);
            return Some(pred);
        }
        // "Where is Berlin?" — no predicate; root the copula itself.
        self.attach(be, subj, DepRel::Nsubj);
        Some(be)
    }

    /// Reduced relatives: `partmod(books, written)`.
    fn attach_partmods(&mut self, verbs: &VerbAnalysis) {
        for &p in &verbs.partmods {
            if let Some(c) = self.chunk_at(p - 1) {
                let head = c.head;
                self.attach(head, p, DepRel::Partmod);
            }
        }
    }

    /// Collapses prepositions into `prep_X` / `agent` edges. One pass left
    /// to right carries what each preposition needs from its left: the
    /// nearest content verb, whether a content verb so far is a participle,
    /// and the nearest participle outside any chunk.
    fn attach_preps(&mut self, root: usize, verbs: &VerbAnalysis) {
        let mut content = verbs.content.iter().copied().peekable();
        let mut verb_left = None;
        let mut participle_verb_left = false;
        let mut participle_left = None;
        for i in 0..self.tokens.len() {
            while let Some(v) = content.next_if(|&v| v < i) {
                verb_left = Some(v);
                participle_verb_left |= self.pos(v) == PosTag::Vbn;
            }
            if i > 0 && self.pos(i - 1) == PosTag::Vbn && self.chunk_at(i - 1).is_none() {
                participle_left = Some(i - 1);
            }
            if !matches!(self.pos(i), PosTag::In | PosTag::To) || self.chunk_at(i).is_some() {
                continue;
            }
            let word = self.lower(i);
            // Object of the preposition: head of the chunk starting right
            // after it, or after a determiner outside any chunk.
            let starts_at = |j: usize| self.chunk_at(j).filter(|c| c.start == j);
            let Some(pobj) = starts_at(i + 1)
                .or_else(|| starts_at(i + 2).filter(|_| self.pos(i + 1) == PosTag::Dt))
                .map(|c| c.head)
            else {
                continue;
            };
            if word == "by" && participle_verb_left {
                // agent() attaches to the participle.
                if let Some(part) = participle_left {
                    self.attach(part, pobj, DepRel::Agent);
                    continue;
                }
            }
            // Governor: `of` attaches to the immediately preceding noun;
            // others to the nearest verb on the left, else the clause root.
            let noun_left = if word == "of" && i > 0 { self.chunk_at(i - 1) } else { None };
            let governor = noun_left.map(|c| c.head).or(verb_left).unwrap_or(root);
            self.attach(governor, pobj, DepRel::Prep(word));
        }
    }

    /// Adverbs and wh-adverbs attach to the clause root (`advmod`), except
    /// "How" before an adjective/quantifier, which attaches to that word.
    fn attach_adverbs(&mut self, root: usize) {
        let n = self.tokens.len();
        for i in 0..n {
            match self.pos(i) {
                PosTag::Wrb => {
                    if i + 1 < n
                        && (self.pos(i + 1).is_adjective() || self.pos(i + 1) == PosTag::Rb)
                    {
                        self.attach(i + 1, i, DepRel::Advmod);
                    } else {
                        self.attach(root, i, DepRel::Advmod);
                    }
                }
                PosTag::Rb => {
                    self.attach(root, i, DepRel::Advmod);
                }
                _ => {}
            }
        }
    }

    /// Any token still unattached (and not the root / punctuation) hangs off
    /// the root with a `dep` edge so the graph stays connected.
    fn attach_leftovers(&mut self, root: usize) {
        for i in 0..self.tokens.len() {
            if self.pos(i) != PosTag::Punct {
                self.attach(root, i, DepRel::Dep);
            }
        }
    }
}

struct VerbAnalysis {
    be: Vec<usize>,
    do_aux: Vec<usize>,
    modals: Vec<usize>,
    content: Vec<usize>,
    partmods: Vec<usize>,
    main: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(g: &DepGraph, head: &str, dep: &str) -> Option<DepRel> {
        let h = g.tokens.iter().position(|t| t.text == head)?;
        let d = g.tokens.iter().position(|t| t.text == dep)?;
        g.head_of(d).filter(|&(head, _)| head == h).map(|(_, rel)| rel.clone())
    }

    fn root_text(g: &DepGraph) -> &str {
        &g.tokens[g.root.unwrap()].text
    }

    #[test]
    fn figure1_which_book_is_written_by_orhan_pamuk() {
        let g = parse_sentence("Which book is written by Orhan Pamuk?");
        assert_eq!(root_text(&g), "written");
        assert_eq!(rel(&g, "book", "Which"), Some(DepRel::Det));
        assert_eq!(rel(&g, "written", "book"), Some(DepRel::Nsubjpass));
        assert_eq!(rel(&g, "written", "is"), Some(DepRel::Auxpass));
        assert_eq!(rel(&g, "written", "Pamuk"), Some(DepRel::Agent));
        assert_eq!(rel(&g, "Pamuk", "Orhan"), Some(DepRel::Nn));
    }

    #[test]
    fn what_is_the_height_of_michael_jordan() {
        let g = parse_sentence("What is the height of Michael Jordan?");
        assert_eq!(root_text(&g), "height");
        assert_eq!(rel(&g, "height", "is"), Some(DepRel::Cop));
        assert_eq!(rel(&g, "height", "What"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "height", "the"), Some(DepRel::Det));
        assert_eq!(rel(&g, "height", "Jordan"), Some(DepRel::Prep("of".into())));
        assert_eq!(rel(&g, "Jordan", "Michael"), Some(DepRel::Nn));
    }

    #[test]
    fn how_tall_is_michael_jordan() {
        let g = parse_sentence("How tall is Michael Jordan?");
        assert_eq!(root_text(&g), "tall");
        assert_eq!(rel(&g, "tall", "is"), Some(DepRel::Cop));
        assert_eq!(rel(&g, "tall", "Jordan"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "tall", "How"), Some(DepRel::Advmod));
    }

    #[test]
    fn where_did_abraham_lincoln_die() {
        let g = parse_sentence("Where did Abraham Lincoln die?");
        assert_eq!(root_text(&g), "die");
        assert_eq!(rel(&g, "die", "did"), Some(DepRel::Aux));
        assert_eq!(rel(&g, "die", "Lincoln"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "die", "Where"), Some(DepRel::Advmod));
        assert_eq!(rel(&g, "Lincoln", "Abraham"), Some(DepRel::Nn));
    }

    #[test]
    fn who_directed_titanic() {
        let g = parse_sentence("Who directed Titanic?");
        assert_eq!(root_text(&g), "directed");
        assert_eq!(rel(&g, "directed", "Who"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "directed", "Titanic"), Some(DepRel::Dobj));
    }

    #[test]
    fn who_is_the_mayor_of_berlin() {
        let g = parse_sentence("Who is the mayor of Berlin?");
        assert_eq!(root_text(&g), "mayor");
        assert_eq!(rel(&g, "mayor", "Who"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "mayor", "is"), Some(DepRel::Cop));
        assert_eq!(rel(&g, "mayor", "Berlin"), Some(DepRel::Prep("of".into())));
    }

    #[test]
    fn when_was_einstein_born() {
        let g = parse_sentence("When was Albert Einstein born?");
        assert_eq!(root_text(&g), "born");
        assert_eq!(rel(&g, "born", "was"), Some(DepRel::Auxpass));
        assert_eq!(rel(&g, "born", "Einstein"), Some(DepRel::Nsubjpass));
        assert_eq!(rel(&g, "born", "When"), Some(DepRel::Advmod));
    }

    #[test]
    fn which_films_did_spielberg_direct() {
        let g = parse_sentence("Which films did Spielberg direct?");
        assert_eq!(root_text(&g), "direct");
        assert_eq!(rel(&g, "direct", "Spielberg"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "direct", "films"), Some(DepRel::Dobj));
        assert_eq!(rel(&g, "films", "Which"), Some(DepRel::Det));
    }

    #[test]
    fn give_me_all_books_written_by_orhan_pamuk() {
        let g = parse_sentence("Give me all books written by Orhan Pamuk.");
        assert_eq!(root_text(&g), "Give");
        assert_eq!(rel(&g, "Give", "me"), Some(DepRel::Iobj));
        assert_eq!(rel(&g, "Give", "books"), Some(DepRel::Dobj));
        assert_eq!(rel(&g, "books", "written"), Some(DepRel::Partmod));
        assert_eq!(rel(&g, "written", "Pamuk"), Some(DepRel::Agent));
    }

    #[test]
    fn is_frank_herbert_still_alive() {
        let g = parse_sentence("Is Frank Herbert still alive?");
        assert_eq!(root_text(&g), "alive");
        assert_eq!(rel(&g, "alive", "Is"), Some(DepRel::Cop));
        assert_eq!(rel(&g, "alive", "Herbert"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "alive", "still"), Some(DepRel::Advmod));
    }

    #[test]
    fn how_many_people_live_in_turkey() {
        let g = parse_sentence("How many people live in Turkey?");
        assert_eq!(root_text(&g), "live");
        assert_eq!(rel(&g, "live", "people"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "people", "many"), Some(DepRel::Amod));
        assert_eq!(rel(&g, "many", "How"), Some(DepRel::Advmod));
        assert_eq!(rel(&g, "live", "Turkey"), Some(DepRel::Prep("in".into())));
    }

    #[test]
    fn in_which_city_was_x_born() {
        let g = parse_sentence("In which city was Ludwig van Beethoven born?");
        assert_eq!(root_text(&g), "born");
        assert_eq!(rel(&g, "born", "Beethoven"), Some(DepRel::Nsubjpass));
        assert_eq!(rel(&g, "born", "city"), Some(DepRel::Prep("in".into())));
        assert_eq!(rel(&g, "city", "which"), Some(DepRel::Det));
    }

    #[test]
    fn multiword_title_with_of() {
        let g = parse_sentence("Who wrote The Museum of Innocence?");
        assert_eq!(root_text(&g), "wrote");
        assert_eq!(rel(&g, "wrote", "Who"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "wrote", "Museum"), Some(DepRel::Dobj));
        assert_eq!(rel(&g, "Museum", "Innocence"), Some(DepRel::Prep("of".into())));
        // Mention reconstruction keeps the 'of' chain.
        let museum = g.tokens.iter().position(|t| t.text == "Museum").unwrap();
        assert_eq!(g.phrase_text(museum), "Museum of Innocence");
    }

    #[test]
    fn possessive_subject() {
        let g = parse_sentence("Who is Obama's wife?");
        assert_eq!(root_text(&g), "wife");
        assert_eq!(rel(&g, "wife", "Obama"), Some(DepRel::Poss));
        assert_eq!(rel(&g, "wife", "Who"), Some(DepRel::Nsubj));
    }

    #[test]
    fn polar_copular_with_predicate_np() {
        let g = parse_sentence("Is Ankara the capital of Turkey?");
        assert_eq!(root_text(&g), "capital");
        assert_eq!(rel(&g, "capital", "Ankara"), Some(DepRel::Nsubj));
        assert_eq!(rel(&g, "capital", "Is"), Some(DepRel::Cop));
        assert_eq!(rel(&g, "capital", "Turkey"), Some(DepRel::Prep("of".into())));
    }

    #[test]
    fn graph_is_connected_to_root() {
        let g = parse_sentence("Which book is written by Orhan Pamuk?");
        let root = g.root.unwrap();
        let covered = g.subtree(root);
        for (i, t) in g.tokens.iter().enumerate() {
            if t.pos != PosTag::Punct {
                assert!(covered.contains(&i), "token {} unattached", t.text);
            }
        }
    }

    #[test]
    fn unparseable_sentence_has_no_root() {
        // Bare NP with no verb at all.
        let g = parse_sentence("The red book");
        assert_eq!(g.root, None);
    }

    #[test]
    fn the_root_never_gets_a_head() {
        // `of` would attach the root "wife" under "capital", its subject,
        // and close a cycle.
        let g = parse_sentence("are in by capital of alive wife ?");
        assert_eq!(root_text(&g), "wife");
        assert_eq!(g.head_of(g.root.unwrap()), None);
        assert!(g.to_tree_string().starts_with("wife/NN (root)"));
    }
}
