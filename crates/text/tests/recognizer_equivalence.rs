//! The compiled recognizer against the reference oracle: on generated and
//! mutated texts, `recognize` and `scan` must report the oracle's mentions
//! (id, surface, category, order) for a shard gazetteer and for a merged
//! union, including when one tokenization is scanned by both.

mod oracle;

use edge_text::{with_tokens, EntityCategory, EntityMention, EntityRecognizer};
use oracle::{compose, phrase_pieces, Oracle};
use proptest::prelude::*;

use EntityCategory::*;

/// Overlapping multi-word phrases, a stop-word first token, a number, an
/// apostrophe, an underscore, Greek with a word-final sigma, a dotted
/// capital I and an accent.
const SHARD_A: &[(&str, EntityCategory)] = &[
    ("Sunset", Other),
    ("Sunset Boulevard", Geolocation),
    ("Sunset Boulevard West", Geolocation),
    ("Majestic Theatre", Facility),
    ("Broadway", Geolocation),
    ("the bronx", Geolocation),
    ("covid19", Other),
    ("phantomopera", Band),
    ("new_york", Geolocation),
    ("2020 vision", Movie),
    ("don't stop", Band),
    ("\u{39f}\u{394}\u{39f}\u{3a3} \u{391}\u{398}\u{397}\u{39d}\u{391}\u{3a3}", Geolocation),
    ("\u{130}stanbul", Geolocation),
];

/// Conflicts with A (`Broadway`, `Sunset Boulevard`), shares a first token
/// with longer phrases, and a cased entry that differs only by case.
const SHARD_B: &[(&str, EntityCategory)] = &[
    ("Broadway", Other),
    ("Sunset Boulevard", Facility),
    ("Sunset Strip Tower Records", Company),
    ("Caf\u{e9} Nero", Company),
    ("COVID19", Product),
    ("Majestic", Person),
    ("Griffith   Observatory", Facility),
    ("\u{3a3}\u{399}\u{3a3} Lab", Facility),
];

fn shard(entries: &[(&'static str, EntityCategory)]) -> (EntityRecognizer, Oracle) {
    (
        EntityRecognizer::with_gazetteer(entries.iter().copied()),
        Oracle::with_gazetteer(entries.iter().copied()),
    )
}

fn world() -> Vec<(EntityRecognizer, Oracle)> {
    let (a, oa) = shard(SHARD_A);
    let (b, ob) = shard(SHARD_B);
    let mut union = a.clone();
    union.merge(&b);
    let mut ounion = oa.clone();
    ounion.merge(&ob);
    vec![(a, oa), (b, ob), (union, ounion)]
}

fn words() -> Vec<String> {
    phrase_pieces(SHARD_A.iter().chain(SHARD_B).map(|(s, _)| s.to_string()))
}

/// The mentions `scan` reports for `text`, scanning the same tokens with
/// `first` and then `second`, as the router does.
fn scan_twice(
    first: &EntityRecognizer,
    second: &EntityRecognizer,
    text: &str,
) -> (Vec<EntityMention>, Vec<EntityMention>) {
    with_tokens(text, |tokens| {
        let mut a = Vec::new();
        first.scan(tokens, |m| a.push(m.into()));
        let mut b = Vec::new();
        second.scan(tokens, |m| b.push(m.into()));
        (a, b)
    })
}

fn check(world: &[(EntityRecognizer, Oracle)], text: &str) -> Result<(), String> {
    for (recognizer, oracle) in world {
        let expected = oracle.recognize(text);
        let got = recognizer.recognize(text);
        if got != expected {
            return Err(format!(
                "recognize({text:?}):\n  got      {got:?}\n  expected {expected:?}"
            ));
        }
    }
    // Union then shard on one tokenization, and the reverse.
    let (union, shard) = (&world[2], &world[0]);
    let (u, s) = scan_twice(&union.0, &shard.0, text);
    let (s2, u2) = scan_twice(&shard.0, &union.0, text);
    let (ue, se) = (union.1.recognize(text), shard.1.recognize(text));
    if u != ue || u2 != ue || s != se || s2 != se {
        return Err(format!("shared-token scans differ on {text:?}"));
    }
    Ok(())
}

#[test]
fn fixed_texts_match_the_oracle() {
    let world = world();
    for text in [
        "",
        "Tonight at the Majestic Theatre on Broadway",
        "walking down sunset boulevard west then Sunset Boulevard and sunset",
        "#covid19 everywhere, #covid19 again on Broadway and broadway",
        "@PhantomOpera was a great way to end our NY trip",
        "THE BRONX is up, the bronx is down, The Bronx!",
        "\u{39f}\u{394}\u{39f}\u{3a3} \u{391}\u{398}\u{397}\u{39d}\u{391}\u{3a3} \u{3b5}\u{3af}\u{3bd}\u{3b1}\u{3b9}",
        "\u{130}STANBUL \u{130}stanbul istanbul i\u{307}stanbul",
        "caf\u{e9} nero, CAF\u{c9} NERO; Caf\u{e9} Nero!",
        "#new_york!! #New_York. @new_york,",
        "2020 vision in 2020, Don't Stop believing, don't stop",
        "Sunset Strip Tower Records #sunset Sunset Strip",
        "see https://t.co/abc Griffith Observatory www.x.y Griffith observatory",
        "li\u{212a}e The Kelvin Sign",
        "Majestic Majestic Theatre Majestic",
        "\u{3a3}\u{399}\u{3a3} Lab and \u{3c3}\u{3b9}\u{3c2} lab",
    ] {
        check(&world, text).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn generated_texts_match_the_oracle(
        draws in proptest::collection::vec((0usize..10_000, 0usize..100, 0usize..100), 0..24)
    ) {
        let text = compose(&words(), &draws);
        let result = check(&world(), &text);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

#[test]
fn serialized_form_is_sorted_lowercase_phrases() {
    let (a, _) = shard(SHARD_A);
    let mut union = a.clone();
    union.merge(&EntityRecognizer::with_gazetteer(SHARD_B.iter().copied()));
    for r in [&a, &union] {
        let value = serde::Serialize::to_value(r);
        let entries: Vec<(String, EntityCategory)> =
            serde::Deserialize::from_value(value.get("entries").unwrap()).unwrap();
        let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let unsorted = keys.clone();
        keys.sort();
        assert_eq!(keys, unsorted);
        assert!(entries.iter().any(|(k, c)| k == "sunset boulevard west" && *c == Geolocation));
        // Round trip: same entries, same recognition.
        let back: EntityRecognizer = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(format!("{:?}", serde::Serialize::to_value(&back)), format!("{value:?}"));
    }
    let merged_b = union.recognize("on Broadway then sunset boulevard");
    assert_eq!(merged_b[0].category, Geolocation, "existing entries win a merge");
    assert_eq!(merged_b[1].category, Geolocation);
}
