//! Typed FILTER values, resolved once per interned term.
//!
//! SPARQL comparison reads a literal as a number, a boolean or a lexical
//! form. Parsing that out of a term costs a datatype check and a float
//! parse, which a FILTER over a million-triple join would otherwise pay on
//! every row. [`GraphBuilder::build`](crate::GraphBuilder::build) resolves
//! each term's [`TermValue`] once into a dense column indexed by
//! [`TermId`](crate::TermId) ([`Graph::value`](crate::Graph::value)), and a
//! query resolves its constants with the same [`TermValue::of`].

use crate::term::{Literal, Term};
use crate::vocab::xsd;

/// What a term compares as in a FILTER.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TermValue {
    /// A numeric literal: exactly [`Literal::as_f64`].
    Num(f64),
    /// An `xsd:boolean` literal: true iff the lexical form is `"true"`.
    Bool(bool),
    /// An `xsd:date` literal whose lexical form is exactly `DDDD-DD-DD`,
    /// packed as the decimal number `YYYYMMDD`. Fixed-width digit strings
    /// order as their numbers do, so comparing two packed dates is
    /// comparing their lexical forms.
    Date(u32),
    /// Anything else: compared through the term itself.
    Other,
}

impl TermValue {
    /// Resolves a term's value.
    pub fn of(term: &Term) -> TermValue {
        let Term::Literal(l) = term else {
            return TermValue::Other;
        };
        if let Some(n) = l.as_f64() {
            return TermValue::Num(n);
        }
        match l.datatype_str() {
            xsd::BOOLEAN => TermValue::Bool(l.lexical_form() == "true"),
            xsd::DATE => packed_date(l).map_or(TermValue::Other, TermValue::Date),
            _ => TermValue::Other,
        }
    }
}

/// `YYYYMMDD` for a lexical form shaped exactly `DDDD-DD-DD`.
fn packed_date(l: &Literal) -> Option<u32> {
    let b = l.lexical_form().as_bytes();
    if b.len() != 10 || b[4] != b'-' || b[7] != b'-' {
        return None;
    }
    // The digit positions, most significant first.
    [0, 1, 2, 3, 5, 6, 8, 9]
        .iter()
        .try_fold(0u32, |acc, &i| b[i].is_ascii_digit().then(|| acc * 10 + u32::from(b[i] - b'0')))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Iri;

    fn date(lexical: &str) -> TermValue {
        TermValue::of(&Term::Literal(Literal::typed(lexical, Iri::new(xsd::DATE))))
    }

    #[test]
    fn literals_resolve_by_datatype() {
        assert_eq!(TermValue::of(&Term::Literal(Literal::integer(-7))), TermValue::Num(-7.0));
        assert_eq!(TermValue::of(&Term::Literal(Literal::double(2.5))), TermValue::Num(2.5));
        assert_eq!(TermValue::of(&Term::Literal(Literal::boolean(true))), TermValue::Bool(true));
        assert_eq!(
            TermValue::of(&Term::Literal(Literal::typed("1", Iri::new(xsd::BOOLEAN)))),
            TermValue::Bool(false)
        );
        assert_eq!(TermValue::of(&Term::Literal(Literal::date(1923, 4, 5))), date("1923-04-05"));
        assert_eq!(date("1923-04-05"), TermValue::Date(19230405));
        assert_eq!(TermValue::of(&Term::literal("1923-04-05")), TermValue::Other);
        assert_eq!(TermValue::of(&Term::iri("http://e/x")), TermValue::Other);
        // An unparsable numeric lexical form is not a number.
        assert_eq!(
            TermValue::of(&Term::Literal(Literal::typed("x", Iri::new(xsd::INTEGER)))),
            TermValue::Other
        );
    }

    #[test]
    fn only_fixed_width_dates_pack() {
        for odd in ["-0044-03-15", "1923-4-5", "1923-04-05Z", "19230-4-05", "1923-04-0x", ""] {
            assert_eq!(date(odd), TermValue::Other, "{odd}");
        }
        // Shape, not calendar: an impossible date still orders lexically.
        assert_eq!(date("2001-13-45"), TermValue::Date(20011345));
        assert_eq!(date("0000-00-00"), TermValue::Date(0));
    }
}
