//! A small text language for ROTA formulas, used by `rota holds`.
//!
//! Grammar (ASCII keywords for the paper's symbols):
//!
//! ```text
//! formula    := disjunct
//! disjunct   := conjunct ( "or" conjunct )*
//! conjunct   := unary ( "and" unary )*
//! unary      := "not" unary | "eventually" unary | "always" unary | atom
//! atom       := "true" | "false" | "satisfy(" demands "in" range ")"
//!             | "(" formula ")"
//! demands    := demand ( "," demand )*
//! demand     := kind "@" loc [ "->" loc ] ":" amount
//! range      := int ".." int
//! ```
//!
//! Examples:
//!
//! ```text
//! satisfy(cpu@l1:8 in 0..10)
//! eventually satisfy(cpu@l1:8, network@l1->l2:4 in 0..20)
//! not always satisfy(cpu@l1:16 in 0..8)
//! ```

use rota_actor::{ResourceDemand, SimpleRequirement};
use rota_interval::TimeInterval;
use rota_logic::Formula;
use rota_resource::{LocatedType, Location, Quantity};

/// A parse error with position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "formula parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses the textual formula language into a [`Formula`].
///
/// # Errors
///
/// Returns [`ParseError`] with a description of the first offending
/// token.
pub fn parse_formula(text: &str) -> Result<Formula, ParseError> {
    let tokens = tokenize(text)?;
    let mut parser = Parser { tokens, pos: 0 };
    let formula = parser.disjunct()?;
    if parser.pos != parser.tokens.len() {
        return Err(ParseError::new(format!(
            "unexpected trailing input at `{}`",
            parser.tokens[parser.pos]
        )));
    }
    Ok(formula)
}

fn tokenize(text: &str) -> Result<Vec<String>, ParseError> {
    let mut tokens = Vec::new();
    let mut word = String::new();
    let mut chars = text.chars().peekable();
    let flush = |word: &mut String, tokens: &mut Vec<String>| {
        if !word.is_empty() {
            tokens.push(std::mem::take(word));
        }
    };
    while let Some(c) = chars.next() {
        match c {
            c if c.is_whitespace() => flush(&mut word, &mut tokens),
            '(' | ')' | ',' | ':' | '@' => {
                flush(&mut word, &mut tokens);
                tokens.push(c.to_string());
            }
            '-' if chars.peek() == Some(&'>') => {
                chars.next();
                flush(&mut word, &mut tokens);
                tokens.push("->".into());
            }
            '.' if chars.peek() == Some(&'.') => {
                chars.next();
                flush(&mut word, &mut tokens);
                tokens.push("..".into());
            }
            c if c.is_alphanumeric() || c == '_' || c == '-' => word.push(c),
            other => return Err(ParseError::new(format!("unexpected character `{other}`"))),
        }
    }
    flush(&mut word, &mut tokens);
    Ok(tokens)
}

struct Parser {
    tokens: Vec<String>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Result<&str, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| ParseError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == token {
            Ok(())
        } else {
            Err(ParseError::new(format!("expected `{token}`, got `{got}`")))
        }
    }

    fn disjunct(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.conjunct()?;
        while self.peek() == Some("or") {
            self.pos += 1;
            let right = self.conjunct()?;
            left = Formula::or(left, right);
        }
        Ok(left)
    }

    fn conjunct(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.unary()?;
        while self.peek() == Some("and") {
            self.pos += 1;
            let right = self.unary()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Some("not") => {
                self.pos += 1;
                Ok(self.unary()?.not())
            }
            Some("eventually") => {
                self.pos += 1;
                Ok(self.unary()?.eventually())
            }
            Some("always") => {
                self.pos += 1;
                Ok(self.unary()?.always())
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Formula, ParseError> {
        match self.next()? {
            "true" => Ok(Formula::True),
            "false" => Ok(Formula::False),
            "(" => {
                let inner = self.disjunct()?;
                self.expect(")")?;
                Ok(inner)
            }
            "satisfy" => {
                self.expect("(")?;
                let requirement = self.requirement()?;
                self.expect(")")?;
                Ok(Formula::SatisfySimple(requirement))
            }
            other => Err(ParseError::new(format!(
                "expected a formula, got `{other}`"
            ))),
        }
    }

    fn requirement(&mut self) -> Result<SimpleRequirement, ParseError> {
        let mut demand = ResourceDemand::new();
        loop {
            let (located, amount) = self.demand()?;
            demand.add(located, amount);
            if self.peek() == Some(",") {
                self.pos += 1;
                continue;
            }
            break;
        }
        self.expect("in")?;
        let start: u64 = self.int()?;
        self.expect("..")?;
        let end: u64 = self.int()?;
        let window =
            TimeInterval::from_ticks(start, end).map_err(|e| ParseError::new(e.to_string()))?;
        Ok(SimpleRequirement::new(demand, window))
    }

    fn demand(&mut self) -> Result<(LocatedType, Quantity), ParseError> {
        let kind = self.next()?.to_string();
        self.expect("@")?;
        let loc = self.next()?.to_string();
        let located = if self.peek() == Some("->") {
            self.pos += 1;
            let to = self.next()?.to_string();
            if kind != "network" && kind != "net" {
                return Err(ParseError::new(format!(
                    "`{kind}` cannot have a destination; only network@a->b"
                )));
            }
            LocatedType::network(Location::new(loc), Location::new(to))
        } else {
            match kind.as_str() {
                "cpu" => LocatedType::cpu(Location::new(loc)),
                "memory" | "mem" => LocatedType::memory(Location::new(loc)),
                "network" | "net" => {
                    return Err(ParseError::new(
                        "network demands need a destination: network@a->b",
                    ))
                }
                other => LocatedType::Node {
                    kind: rota_resource::NodeResourceKind::custom(other),
                    location: Location::new(loc),
                },
            }
        };
        self.expect(":")?;
        let amount = Quantity::new(self.int()?);
        Ok((located, amount))
    }

    fn int(&mut self) -> Result<u64, ParseError> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| ParseError::new(format!("expected a number, got `{t}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_atoms_and_operators() {
        assert_eq!(parse_formula("true").unwrap(), Formula::True);
        assert_eq!(parse_formula("false").unwrap(), Formula::False);
        let f = parse_formula("not true").unwrap();
        assert_eq!(f, Formula::True.not());
        let f = parse_formula("eventually satisfy(cpu@l1:8 in 0..10)").unwrap();
        assert!(matches!(f, Formula::Eventually(_)));
        let f = parse_formula("always (true or false)").unwrap();
        assert!(matches!(f, Formula::Always(_)));
        let f = parse_formula("true and false or true").unwrap();
        assert!(matches!(f, Formula::Or(_, _)));
    }

    #[test]
    fn parses_multi_type_demands() {
        let f = parse_formula("satisfy(cpu@l1:8, network@l1->l2:4, mem@l1:2 in 0..20)").unwrap();
        match f {
            Formula::SatisfySimple(req) => {
                assert_eq!(req.demand().len(), 3);
                assert_eq!(
                    req.demand()
                        .amount(&LocatedType::cpu(Location::new("l1")))
                        .units(),
                    8
                );
                assert_eq!(req.window(), TimeInterval::from_ticks(0, 20).unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn custom_kinds_parse() {
        let f = parse_formula("satisfy(gpu@l3:5 in 1..4)").unwrap();
        match f {
            Formula::SatisfySimple(req) => {
                assert_eq!(req.demand().len(), 1);
                let lt = req.demand().located_types().next().unwrap().clone();
                assert_eq!(lt.to_string(), "⟨gpu, l3⟩");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_formula("").is_err());
        assert!(parse_formula("satisfy(cpu@l1:8 in 10..10)").is_err());
        assert!(parse_formula("satisfy(network@l1:4 in 0..5)").is_err());
        assert!(parse_formula("satisfy(cpu@l1:8 in 0..5) extra").is_err());
        assert!(parse_formula("satisfy(cpu@l1:x in 0..5)").is_err());
        assert!(parse_formula("maybe true").is_err());
        assert!(parse_formula("satisfy(cpu@l1->l2:4 in 0..5)").is_err());
        assert!(parse_formula("true &").is_err());
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        // a or b and c parses as a or (b and c)
        let f = parse_formula("false or true and true").unwrap();
        // evaluate structurally: Or(false, And(true,true)) is true
        let checker = rota_logic::ModelChecker::greedy(0);
        let state = rota_logic::State::new(
            rota_resource::ResourceSet::new(),
            rota_interval::TimePoint::ZERO,
        );
        assert!(checker.holds(&state, &f));
    }
}
