//! POS tagger: lexicon lookup + morphology back-off + context repair rules.
//!
//! The stand-in for Stanford CoreNLP's tagger. It is deterministic and
//! purpose-built for questions: the context rules encode exactly the
//! ambiguities that matter for downstream triple extraction (WDT vs WP,
//! VBD vs VBN, proper-noun runs).

use crate::lemma::lemmatize;
use crate::lexicon;
use crate::tokens::{PosTag, Token};

/// Tags a tokenized sentence, producing [`Token`]s with POS and lemma.
pub fn tag(words: &[String]) -> Vec<Token> {
    let mut tags: Vec<PosTag> = words.iter().enumerate().map(|(i, w)| initial_tag(w, i)).collect();
    apply_context_rules(words, &mut tags);
    words
        .iter()
        .zip(tags)
        .enumerate()
        .map(|(index, (word, pos))| Token {
            text: word.clone(),
            lemma: lemmatize(word, pos),
            pos,
            index,
        })
        .collect()
}

/// Tokenizes and tags a raw sentence in one step.
pub fn tag_sentence(sentence: &str) -> Vec<Token> {
    tag(&crate::tokenize::tokenize(sentence))
}

fn initial_tag(word: &str, index: usize) -> PosTag {
    if word.chars().all(|c| c.is_ascii_punctuation()) && !word.is_empty() {
        if word == "'s" {
            return PosTag::Pos;
        }
        return PosTag::Punct;
    }
    if word.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return PosTag::Cd;
    }
    let lower = word.to_lowercase();
    if let Some(tag) = lexicon::lookup(&lower) {
        // Capitalized mid-sentence words keep proper-noun readings even when
        // the lexicon knows the lower-cased word (e.g. "Snow", "Gary").
        if index > 0 && starts_uppercase(word) && !tag.is_wh() && open_class(tag) {
            return PosTag::Nnp;
        }
        return tag;
    }
    // Unknown word: shape and suffix heuristics.
    if starts_uppercase(word) && index > 0 {
        return PosTag::Nnp;
    }
    morphological_guess(&lower, index)
}

fn open_class(tag: PosTag) -> bool {
    tag.is_noun() || tag.is_verb() || tag.is_adjective()
}

fn starts_uppercase(word: &str) -> bool {
    word.chars().next().is_some_and(char::is_uppercase)
}

fn morphological_guess(lower: &str, index: usize) -> PosTag {
    if lower.ends_with("ly") {
        return PosTag::Rb;
    }
    if lower.ends_with("ing") && lower.len() > 4 {
        return PosTag::Vbg;
    }
    if lower.ends_with("ed") && lower.len() > 3 {
        return PosTag::Vbd;
    }
    if lower.ends_with("est") && lower.len() > 4 {
        return PosTag::Jjs;
    }
    if (lower.ends_with("ous") || lower.ends_with("ful") || lower.ends_with("ive")
        || lower.ends_with("al"))
        && lower.len() > 4
    {
        return PosTag::Jj;
    }
    if lower.ends_with('s') && !lower.ends_with("ss") && lower.len() > 3 {
        return PosTag::Nns;
    }
    // Sentence-initial unknown (likely a name at position 0 of a statement).
    if index == 0 {
        return PosTag::Nnp;
    }
    PosTag::Nn
}

fn apply_context_rules(words: &[String], tags: &mut [PosTag]) {
    let lower: Vec<String> = words.iter().map(|w| w.to_lowercase()).collect();
    let n = tags.len();
    // Carried left to right: the last token that is neither an adverb nor
    // punctuation, whether a be/have form has been seen, and whether a do
    // form has. A token's tag is final once its own step is done.
    let mut prev_content: Option<usize> = None;
    let mut aux_seen = false;
    let mut do_seen = false;

    for i in 0..n {
        // Rule 1: "which"/"what" directly before a noun phrase is WDT;
        // standalone "what" is WP.
        if (lower[i] == "which" || lower[i] == "what") && i + 1 < n {
            let next_is_nominal = tags[i + 1].is_noun()
                || tags[i + 1].is_adjective()
                || (tags[i + 1] == PosTag::Nnp);
            tags[i] = if next_is_nominal { PosTag::Wdt } else { PosTag::Wp };
        }
        // Rule 2: a VBD directly or one-adverb after a be-form is a passive
        // participle (VBN): "is written", "was originally built".
        if tags[i] == PosTag::Vbd && prev_content.is_some_and(|p| lexicon::is_be_form(&lower[p])) {
            tags[i] = PosTag::Vbn;
        }
        // Rule 3: a VBN with no be/have auxiliary anywhere before it in the
        // clause acts as a simple past (VBD): "Orhan Pamuk wrote ..." is
        // already VBD, but "Who directed Titanic?" needs directed→VBD.
        if tags[i] == PosTag::Vbn {
            // Participles directly after a noun form reduced relatives
            // ("books written by X") and stay VBN.
            let after_noun = i > 0 && tags[i - 1].is_noun();
            if !aux_seen && !after_noun {
                tags[i] = PosTag::Vbd;
            }
        }
        // Rule 4: base verb after do-aux or "to": "did ... die", "to write".
        if do_seen
            && (tags[i] == PosTag::Nn || tags[i] == PosTag::Vbz)
            && lexicon::lookup(&lower[i]) == Some(PosTag::Vb)
        {
            tags[i] = PosTag::Vb;
        }
        // Rule 5: "how" + adjective/adverb stays WRB but flags the adjective
        // reading of the next token ("How tall", "How many").
        if lower[i] == "how" && i + 1 < n && tags[i + 1] == PosTag::Nn
            && lexicon::lookup(&lower[i + 1]).is_some_and(|t| t.is_adjective()) {
                tags[i + 1] = PosTag::Jj;
            }
        // Rule 6: "many" after "how" is JJ (quantity adjective).
        if lower[i] == "many" && i > 0 && lower[i - 1] == "how" {
            tags[i] = PosTag::Jj;
        }
        // Rule 7: determiner + unknown-noun repair: a word tagged as a verb
        // directly after a determiner is a noun ("the play", "a star").
        if i > 0 && matches!(tags[i - 1], PosTag::Dt | PosTag::Wdt | PosTag::PrpPoss)
            && matches!(tags[i], PosTag::Vb | PosTag::Vbp)
        {
            tags[i] = PosTag::Nn;
        }

        if !matches!(tags[i], PosTag::Rb | PosTag::Punct) {
            prev_content = Some(i);
        }
        aux_seen |= lexicon::is_be_form(&lower[i]) || lexicon::is_have_form(&lower[i]);
        do_seen |= lexicon::is_do_form(&lower[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags_of(sentence: &str) -> Vec<(String, PosTag)> {
        tag_sentence(sentence).into_iter().map(|t| (t.text, t.pos)).collect()
    }

    fn tag_seq(sentence: &str) -> Vec<PosTag> {
        tag_sentence(sentence).into_iter().map(|t| t.pos).collect()
    }

    #[test]
    fn figure1_sentence() {
        // Paper Figure 1: "Which book is written by Orhan Pamuk"
        let tagged = tags_of("Which book is written by Orhan Pamuk?");
        let expect = [
            ("Which", PosTag::Wdt),
            ("book", PosTag::Nn),
            ("is", PosTag::Vbz),
            ("written", PosTag::Vbn),
            ("by", PosTag::In),
            ("Orhan", PosTag::Nnp),
            ("Pamuk", PosTag::Nnp),
            ("?", PosTag::Punct),
        ];
        for ((word, tag), (ew, et)) in tagged.iter().zip(expect.iter()) {
            assert_eq!(word, ew);
            assert_eq!(tag, et, "word {word}");
        }
    }

    #[test]
    fn what_standalone_is_wp() {
        let tagged = tags_of("What is the height of Michael Jordan?");
        assert_eq!(tagged[0].1, PosTag::Wp);
        assert_eq!(tagged[3].1, PosTag::Nn); // height
    }

    #[test]
    fn which_before_noun_is_wdt() {
        assert_eq!(tag_seq("Which country borders France?")[0], PosTag::Wdt);
    }

    #[test]
    fn how_tall_adjective() {
        let tagged = tags_of("How tall is Michael Jordan?");
        assert_eq!(tagged[0].1, PosTag::Wrb);
        assert_eq!(tagged[1].1, PosTag::Jj);
    }

    #[test]
    fn active_past_not_participle() {
        let tagged = tags_of("Who directed Titanic?");
        assert_eq!(tagged[1].1, PosTag::Vbd);
    }

    #[test]
    fn passive_participle_after_be() {
        let tagged = tags_of("The book was written by him");
        assert_eq!(tagged[3].1, PosTag::Vbn);
    }

    #[test]
    fn do_support_base_verb() {
        let tagged = tags_of("Where did Abraham Lincoln die?");
        assert_eq!(tagged[0].1, PosTag::Wrb);
        assert_eq!(tagged[1].1, PosTag::Vbd); // did
        let die = tagged.iter().find(|(w, _)| w == "die").unwrap();
        assert_eq!(die.1, PosTag::Vb);
    }

    #[test]
    fn unknown_capitalized_is_nnp() {
        let tagged = tags_of("Who wrote Zorba?");
        let zorba = tagged.iter().find(|(w, _)| w == "Zorba").unwrap();
        assert_eq!(zorba.1, PosTag::Nnp);
    }

    #[test]
    fn capitalized_common_word_midsentence_is_nnp() {
        // "Snow" is a common noun, but capitalized mid-sentence it is a title.
        let tagged = tags_of("Who wrote Snow?");
        let snow = tagged.iter().find(|(w, _)| w == "Snow").unwrap();
        assert_eq!(snow.1, PosTag::Nnp);
    }

    #[test]
    fn reduced_relative_participle_stays_vbn() {
        let tagged = tags_of("Give me all books written by Orhan Pamuk.");
        let written = tagged.iter().find(|(w, _)| w == "written").unwrap();
        assert_eq!(written.1, PosTag::Vbn);
    }

    #[test]
    fn how_many_quantity() {
        let tagged = tags_of("How many people live in Turkey?");
        assert_eq!(tagged[1].1, PosTag::Jj); // many
        assert_eq!(tagged[2].1, PosTag::Nns); // people
        let live = tagged.iter().find(|(w, _)| w == "live").unwrap();
        assert!(live.1.is_verb());
    }

    #[test]
    fn numbers_are_cd() {
        let tagged = tags_of("Is 42 the answer?");
        assert_eq!(tagged[1].1, PosTag::Cd);
    }

    #[test]
    fn lemmas_are_attached() {
        let tokens = tag_sentence("Which book is written by Orhan Pamuk?");
        let written = tokens.iter().find(|t| t.text == "written").unwrap();
        assert_eq!(written.lemma, "write");
        let book = tokens.iter().find(|t| t.text == "book").unwrap();
        assert_eq!(book.lemma, "book");
    }

    #[test]
    fn determiner_verb_repair() {
        let tagged = tags_of("What is the play about?");
        let play = tagged.iter().find(|(w, _)| w == "play").unwrap();
        assert_eq!(play.1, PosTag::Nn);
    }

    #[test]
    fn still_alive_polar_question() {
        let tagged = tags_of("Is Frank Herbert still alive?");
        assert_eq!(tagged[0].1, PosTag::Vbz);
        let still = tagged.iter().find(|(w, _)| w == "still").unwrap();
        assert_eq!(still.1, PosTag::Rb);
        let alive = tagged.iter().find(|(w, _)| w == "alive").unwrap();
        assert_eq!(alive.1, PosTag::Jj);
    }
}
