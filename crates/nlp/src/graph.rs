//! Typed dependency graphs (Stanford-dependencies style).

use std::fmt;

use crate::tokens::Token;

/// Typed dependency relations — the collapsed Stanford-dependencies subset
/// the paper's triple extraction consumes. Prepositions are collapsed into
/// the relation (`prep_of(height, Jordan)`), matching the representation the
/// paper's Figure 1 derives from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DepRel {
    /// Determiner: `det(book, Which)`
    Det,
    /// Noun compound modifier: `nn(Pamuk, Orhan)`
    Nn,
    /// Adjectival modifier: `amod(people, many)`
    Amod,
    /// Numeric modifier
    Num,
    /// Possession modifier: `poss(wife, Obama)`
    Poss,
    /// Nominal subject (active)
    Nsubj,
    /// Nominal subject (passive): `nsubjpass(written, book)`
    Nsubjpass,
    /// Direct object
    Dobj,
    /// Indirect object: `iobj(give, me)`
    Iobj,
    /// Copula: `cop(height, is)`
    Cop,
    /// Auxiliary: `aux(die, did)`
    Aux,
    /// Passive auxiliary: `auxpass(written, is)`
    Auxpass,
    /// Passive agent (collapsed `by`): `agent(written, Pamuk)`
    Agent,
    /// Collapsed preposition: `prep_of`, `prep_in`, ...
    Prep(String),
    /// Adverbial modifier: `advmod(die, Where)`
    Advmod,
    /// Participial modifier (reduced relative): `partmod(books, written)`
    Partmod,
    /// Unclassified dependency (fallback for unhandled structure)
    Dep,
}

impl fmt::Display for DepRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepRel::Det => f.write_str("det"),
            DepRel::Nn => f.write_str("nn"),
            DepRel::Amod => f.write_str("amod"),
            DepRel::Num => f.write_str("num"),
            DepRel::Poss => f.write_str("poss"),
            DepRel::Nsubj => f.write_str("nsubj"),
            DepRel::Nsubjpass => f.write_str("nsubjpass"),
            DepRel::Dobj => f.write_str("dobj"),
            DepRel::Iobj => f.write_str("iobj"),
            DepRel::Cop => f.write_str("cop"),
            DepRel::Aux => f.write_str("aux"),
            DepRel::Auxpass => f.write_str("auxpass"),
            DepRel::Agent => f.write_str("agent"),
            DepRel::Prep(p) => write!(f, "prep_{p}"),
            DepRel::Advmod => f.write_str("advmod"),
            DepRel::Partmod => f.write_str("partmod"),
            DepRel::Dep => f.write_str("dep"),
        }
    }
}

/// A dependency parse of one sentence. Every token has one head slot, so it
/// has at most one governor by construction; the root's slot stays empty.
#[derive(Debug, Clone, PartialEq)]
pub struct DepGraph {
    pub tokens: Vec<Token>,
    /// Index of the root token, if the parser committed to a structure.
    pub root: Option<usize>,
    /// Per token, its head and relation; `None` for the root and for tokens
    /// left unattached.
    heads: Vec<Option<(usize, DepRel)>>,
    /// Attached tokens grouped by head: head `h`'s children are
    /// `children[starts[h]..starts[h + 1]]`, in attachment order.
    children: Vec<usize>,
    starts: Vec<usize>,
}

impl DepGraph {
    /// Builds a graph from its head slots. `attached` lists the attached
    /// tokens in attachment order, which each head's children keep.
    pub(crate) fn new(
        tokens: Vec<Token>,
        heads: Vec<Option<(usize, DepRel)>>,
        attached: &[usize],
        root: Option<usize>,
    ) -> DepGraph {
        let mut starts = vec![0; tokens.len() + 1];
        for (head, _) in heads.iter().flatten() {
            starts[head + 1] += 1;
        }
        for h in 0..tokens.len() {
            starts[h + 1] += starts[h];
        }
        let mut next = starts.clone();
        let mut children = vec![0; starts[tokens.len()]];
        for &d in attached {
            let Some((head, _)) = heads[d] else { continue };
            children[next[head]] = d;
            next[head] += 1;
        }
        DepGraph { tokens, root, heads, children, starts }
    }

    /// The token at `index`.
    pub fn token(&self, index: usize) -> &Token {
        &self.tokens[index]
    }

    /// Children of a head with their relations, in attachment order.
    pub fn children(&self, head: usize) -> impl Iterator<Item = (usize, &DepRel)> + '_ {
        self.children[self.starts[head]..self.starts[head + 1]]
            .iter()
            .filter_map(|&d| Some((d, &self.heads[d].as_ref()?.1)))
    }

    /// First attached child of `head` with relation `rel`.
    pub fn child_with(&self, head: usize, rel: &DepRel) -> Option<usize> {
        self.children(head).find(|(_, r)| *r == rel).map(|(d, _)| d)
    }

    /// The head and relation of a dependent, if attached.
    pub fn head_of(&self, dependent: usize) -> Option<(usize, &DepRel)> {
        self.heads[dependent].as_ref().map(|(head, rel)| (*head, rel))
    }

    /// Every edge as `(head, dependent, relation)`, in dependent order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, &DepRel)> + '_ {
        self.heads
            .iter()
            .enumerate()
            .filter_map(|(d, slot)| slot.as_ref().map(|(head, rel)| (*head, d, rel)))
    }

    /// All token indices in the subtree rooted at `head` (inclusive), sorted.
    pub fn subtree(&self, head: usize) -> Vec<usize> {
        self.reach(head, |_| true)
    }

    /// `head` and every token below it through relations `follow` accepts,
    /// sorted.
    fn reach(&self, head: usize, follow: impl Fn(&DepRel) -> bool) -> Vec<usize> {
        let mut seen = vec![false; self.tokens.len()];
        seen[head] = true;
        let mut out = vec![head];
        let mut stack = vec![head];
        while let Some(h) = stack.pop() {
            for (d, rel) in self.children(h) {
                if follow(rel) && !seen[d] {
                    seen[d] = true;
                    out.push(d);
                    stack.push(d);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Surface text of a subtree restricted to name-forming relations
    /// (`nn`, `det`, `prep_of` chains) — drops modifiers like relative
    /// clauses so "books written by X" yields "books".
    pub fn phrase_text(&self, head: usize) -> String {
        let keep = self.reach(head, |rel| {
            matches!(rel, DepRel::Nn | DepRel::Num | DepRel::Poss)
                || matches!(rel, DepRel::Prep(p) if p == "of")
        });
        // Re-insert the connecting "of" tokens that sit between kept spans.
        let mut words: Vec<&str> = Vec::new();
        for (pos, &i) in keep.iter().enumerate() {
            if pos > 0 {
                let prev = keep[pos - 1];
                if i == prev + 2 && self.tokens[i - 1].lemma == "of" {
                    words.push(&self.tokens[i - 1].text);
                }
            }
            words.push(&self.tokens[i].text);
        }
        words.join(" ")
    }

    /// Renders the parse as an indented tree (the shape of the paper's
    /// Figure 1), children in token order. The root has no head, so every
    /// token the walk reaches leads back to it and the walk ends.
    pub fn to_tree_string(&self) -> String {
        let Some(root) = self.root else { return "(no parse)\n".to_string() };
        let mut out = format!("{} (root)\n", self.tokens[root]);
        let mut stack = vec![(root, 0)];
        while let Some((node, depth)) = stack.pop() {
            if let Some((_, rel)) = self.head_of(node) {
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!("└─ {rel} ─ {}\n", self.tokens[node]));
            }
            let mut kids: Vec<usize> = self.children(node).map(|(d, _)| d).collect();
            kids.sort_unstable_by(|a, b| b.cmp(a));
            stack.extend(kids.into_iter().map(|d| (d, depth + 1)));
        }
        out
    }

    /// Lists the edges in `rel(head, dependent)` notation, one per line —
    /// the textual form Stanford tools print.
    pub fn to_relations_string(&self) -> String {
        let mut out = String::new();
        for (head, dependent, rel) in self.edges() {
            out.push_str(&format!(
                "{}({}-{}, {}-{})\n",
                rel,
                self.tokens[head].text,
                head + 1,
                self.tokens[dependent].text,
                dependent + 1
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::PosTag;

    fn tok(text: &str, pos: PosTag, index: usize) -> Token {
        Token { text: text.into(), lemma: text.to_lowercase(), pos, index }
    }

    fn figure1_graph() -> DepGraph {
        // Which book is written by Orhan Pamuk
        let tokens = vec![
            tok("Which", PosTag::Wdt, 0),
            tok("book", PosTag::Nn, 1),
            tok("is", PosTag::Vbz, 2),
            tok("written", PosTag::Vbn, 3),
            tok("by", PosTag::In, 4),
            tok("Orhan", PosTag::Nnp, 5),
            tok("Pamuk", PosTag::Nnp, 6),
        ];
        let heads = vec![
            Some((1, DepRel::Det)),
            Some((3, DepRel::Nsubjpass)),
            Some((3, DepRel::Auxpass)),
            None,
            None,
            Some((6, DepRel::Nn)),
            Some((3, DepRel::Agent)),
        ];
        // The parser's order: the noun phrases' inner edges, then the clause.
        DepGraph::new(tokens, heads, &[0, 5, 2, 1, 6], Some(3))
    }

    #[test]
    fn children_keep_attachment_order() {
        let g = figure1_graph();
        let kids: Vec<usize> = g.children(3).map(|(i, _)| i).collect();
        assert_eq!(kids, vec![2, 1, 6]);
        assert_eq!(g.children(6).collect::<Vec<_>>(), vec![(5, &DepRel::Nn)]);
        assert_eq!(g.children(0).count(), 0);
    }

    #[test]
    fn child_with_and_head_of() {
        let g = figure1_graph();
        assert_eq!(g.child_with(3, &DepRel::Agent), Some(6));
        assert_eq!(g.child_with(3, &DepRel::Dobj), None);
        let (head, rel) = g.head_of(1).unwrap();
        assert_eq!(head, 3);
        assert_eq!(rel, &DepRel::Nsubjpass);
    }

    #[test]
    fn subtree_is_sorted_and_inclusive() {
        let g = figure1_graph();
        assert_eq!(g.subtree(6), vec![5, 6]);
        // root + nsubjpass(book) + its det(Which) + auxpass(is) + agent(Pamuk) + nn(Orhan)
        assert_eq!(g.subtree(3).len(), 6);
    }

    #[test]
    fn phrase_text_keeps_name_parts_only() {
        let g = figure1_graph();
        // book's subtree includes det(Which); phrase_text drops it.
        assert_eq!(g.phrase_text(1), "book");
        assert_eq!(g.phrase_text(6), "Orhan Pamuk");
    }

    #[test]
    fn tree_rendering_contains_relations() {
        let g = figure1_graph();
        let tree = g.to_tree_string();
        assert!(tree.contains("written/VBN (root)"));
        assert!(tree.contains("nsubjpass"));
        assert!(tree.contains("agent"));
        assert!(tree.contains("nn"));
        // Children render in token order: book before is before Pamuk.
        let book = tree.find("book").unwrap();
        assert!(book < tree.find("is/").unwrap() && book < tree.find("Pamuk").unwrap());
    }

    #[test]
    fn relations_string_one_per_line() {
        let g = figure1_graph();
        let rels = g.to_relations_string();
        assert!(rels.contains("nsubjpass(written-4, book-2)"));
        assert_eq!(rels.lines().count(), g.edges().count());
        assert_eq!(g.edges().count(), 5);
    }

    #[test]
    fn prep_rel_display() {
        assert_eq!(DepRel::Prep("of".into()).to_string(), "prep_of");
        assert_eq!(DepRel::Nsubjpass.to_string(), "nsubjpass");
    }
}
