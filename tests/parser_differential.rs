//! The pull reader against the parser it replaced, and against hostile input.
//!
//! **Differential.** `xmlord_testkit::recursive_parser` is the recursive
//! parser `xmlord-xml` shipped before `xml::events`, kept verbatim as the
//! oracle. Over seeded documents — random trees, hand-rolled documents using
//! every construct, the university and `dtdgen` corpora, Appendix A with its
//! internal subset — and over seeded byte-level mutations of them, `parse`
//! must build an equal `Document` or fail with the same `XmlErrorKind` at the
//! same `Position`. The one divergence the corpus can reach is a literal
//! character XML forbids, which the oracle accepts; it is asserted as such.
//! The reader's event stream, written back out, must also equal
//! `serialize(parse(x))`.
//!
//! **Hostile input.** The three inputs the oracle crashes on, balloons on or
//! silently stores each return their typed error here, quickly and in
//! bounded memory (the test kit's `CountingAlloc`), and a document at
//! the depth limit stores and retrieves byte-identically in both engine
//! modes on a thread with the default stack — which is what shows the limit
//! protects the recursive walkers behind the parser.
//!
//! A release build (the CI step) runs eight times the cases of a debug one
//! (tier-1).

use std::time::{Duration, Instant};

use xml_ordb::mapping::Xml2OrDb;
use xml_ordb::ordb::DbMode;
use xml_ordb::workload::dtdgen::{generate_dtd, DtdConfig};
use xml_ordb::workload::university::{university_xml, UniversityConfig};
use xmlord_prng::Prng;
use xmlord_testkit::{cases, peak_above, pick, recursive_parser, CountingAlloc, Mutator};
use xmlord_xml::escape::{escape_attr, escape_text, is_xml_char};
use xmlord_xml::events::{Event, Reader};
use xmlord_xml::serializer::{serialize, SerializeOptions};
use xmlord_xml::{parse, XmlErrorKind, MAX_ELEMENT_DEPTH, MAX_ENTITY_EXPANSION_BYTES};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

/// Appendix A of the paper, internal subset and `&cs;` included.
const APPENDIX_A: &str = r#"<?xml version="1.0"?>
<!DOCTYPE University [
  <!ELEMENT University (StudyCourse,Student*)>
  <!ELEMENT Student (LName,FName,Course*)>
  <!ATTLIST Student StudNr CDATA #REQUIRED>
  <!ELEMENT Course (Name,Professor*,CreditPts?)>
  <!ELEMENT Professor (PName,Subject+,Dept)>
  <!ENTITY cs "Computer Science">
  <!ELEMENT LName (#PCDATA)>
  <!ELEMENT FName (#PCDATA)>
  <!ELEMENT Name (#PCDATA)>
  <!ELEMENT PName (#PCDATA)>
  <!ELEMENT Subject (#PCDATA)>
  <!ELEMENT Dept (#PCDATA)>
  <!ELEMENT StudyCourse (#PCDATA)>
]>
<University>
  <StudyCourse>&cs;</StudyCourse>
  <Student StudNr="23374">
    <LName>Conrad</LName>
    <FName>Matthias</FName>
    <Course>
      <Name>Database Systems II</Name>
      <Professor>
        <PName>Kudrass</PName>
        <Subject>Database Systems</Subject>
        <Subject>Operat. Systems</Subject>
        <Dept>&cs;</Dept>
      </Professor>
      <CreditPts>4</CreditPts>
    </Course>
  </Student>
</University>"#;

/// Nested, repeated and self-referential entities, a parameter entity, an
/// external one, character references inside replacement text.
const ENTITIES: &str = r#"<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<!DOCTYPE r SYSTEM "r.dtd" [
  <!-- ] in a comment -->
  <!ENTITY % p "ignored ']'">
  <!ENTITY uni "HTWK &city;, &city; &#38;amp; &lt;more&gt;">
  <!ENTITY city 'Leipzig &#x41;'>
  <!ENTITY ext SYSTEM "ext.xml">
  <!ENTITY loop "&pool;"> <!ENTITY pool "x &loop; y">
  <!ENTITY city "second declaration loses">
]>
<!-- before --><?app data?>
<r a="&uni;" b='tab&#9;here	and
there'>&uni;<s>&city;&city;</s><![CDATA[<raw> & ]] stuff]]>&amp;&apos;&quot;<e/></r>
<!-- after --><?done?>"#;

const NCNAME_FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
const NCNAME_REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";

fn ncname(rng: &mut Prng) -> String {
    let mut s = String::new();
    s.push(*rng.choose(NCNAME_FIRST) as char);
    for _ in 0..rng.gen_range(0usize..8) {
        s.push(*rng.choose(NCNAME_REST) as char);
    }
    if rng.gen_bool(0.05) {
        s.push_str("é日");
    }
    s
}

/// Random text legal in XML content, like `xml/tests/proptests.rs`'
/// `xml_text`: printable ASCII with every character that needs escaping,
/// tabs, newlines, a few non-ASCII ranges (U+FFFD, the last legal character
/// of the range U+FFFE closes, among them).
fn xml_text(rng: &mut Prng) -> String {
    let len = rng.gen_range(0usize..40);
    (0..len)
        .map(|_| match rng.gen_range(0u32..9) {
            0..=4 => char::from_u32(rng.gen_range(' ' as u32..'~' as u32 + 1)).unwrap(),
            5 => '\n',
            6 => '\t',
            7 => char::from_u32(rng.gen_range(0xA0u32..0x300)).unwrap(),
            _ => *rng.choose(&['\u{4E2D}', '\u{FFFD}', '\u{EFFF}', '\u{F000}', '\u{1F600}']),
        })
        .collect()
}

/// A random element tree written out by hand, so that the text — not a
/// serializer — decides the syntax: both quote styles, whitespace inside
/// tags, empty elements in both spellings, comments, PIs, CDATA sections,
/// character and predefined references, prefixed names.
fn write_tree(rng: &mut Prng, depth: u32, out: &mut String) {
    let mut name = ncname(rng);
    if rng.gen_bool(0.1) {
        name = format!("{}:{name}", ncname(rng));
    }
    out.push('<');
    out.push_str(&name);
    let mut attrs: Vec<String> = (0..rng.gen_range(0usize..3)).map(|_| ncname(rng)).collect();
    attrs.sort();
    attrs.dedup();
    for attr in attrs {
        out.push_str(pick(rng, &[" ", "  ", "\n\t"]));
        out.push_str(&attr);
        out.push_str(pick(rng, &["=", " = ", "=\n"]));
        let value = xml_text(rng);
        if rng.gen_bool(0.5) {
            out.push_str(&format!("\"{}\"", escape_attr(&value)));
        } else {
            out.push_str(&format!("'{}'", escape_attr(&value).replace('\'', "&apos;")));
        }
    }
    if rng.gen_bool(0.3) {
        out.push(' ');
    }
    let children = if depth == 0 { 0 } else { rng.gen_range(0usize..5) };
    if children == 0 && rng.gen_bool(0.5) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..children {
        match rng.gen_range(0u32..10) {
            0..=3 => write_tree(rng, depth - 1, out),
            4..=5 => out.push_str(&escape_text(&xml_text(rng))),
            6 => out.push_str(&format!("<!--{}-->", xml_text(rng).replace('-', "~"))),
            7 => out.push_str(&format!("<?{} {}?>", ncname(rng), xml_text(rng).replace('?', "!"))),
            8 => out.push_str(&format!("<![CDATA[{}]]>", xml_text(rng).replace(']', ")"))),
            _ => out.push_str(pick(rng, &["&#65;", "&#x1F600;", "&lt;&gt;", "&quot;", " ]] "])),
        }
    }
    out.push_str("</");
    out.push_str(&name);
    if rng.gen_bool(0.2) {
        out.push_str(" \n");
    }
    out.push('>');
}

/// One seeded well-formed document of the corpus.
fn document(rng: &mut Prng) -> String {
    match rng.gen_range(0u32..8) {
        0 => APPENDIX_A.to_string(),
        1 => ENTITIES.to_string(),
        2 => university_xml(&UniversityConfig {
            students: rng.gen_range(0usize..6),
            seed: rng.gen_range(0u64..1000),
            ..Default::default()
        }),
        3 => {
            let seed = rng.gen_range(0u64..400);
            let generated = generate_dtd(&DtdConfig {
                depth: rng.gen_range(1usize..4),
                fanout: rng.gen_range(1usize..3),
                leaves: 2,
                star_percent: 45,
                attr_percent: 40,
                seed,
            });
            generated.document(rng.gen_range(0usize..3), seed)
        }
        _ => {
            let mut out = String::new();
            if rng.gen_bool(0.3) {
                out.push_str("<?xml version='1.0'?>\n");
            }
            if rng.gen_bool(0.2) {
                out.push_str("<!-- prolog --> ");
            }
            write_tree(rng, 3, &mut out);
            if rng.gen_bool(0.2) {
                out.push_str("\n<?epilog?>");
            }
            out
        }
    }
}

/// Pieces of markup worth splicing into a document.
const TOKENS: &[&str] = &[
    "<", ">", "/", "</", "/>", "&", ";", "&#", "&#x", "&amp;", "&cs;", "&nope;", "=", "\"", "'",
    "<!--", "-->", "--", "<![CDATA[", "]]>", "]", "<?", "?>", "<?xml ", "<!DOCTYPE ", "<!ENTITY ",
    "[", " ", "\n", "\t", "\r", ":", "a", "x='1'", "\u{1}", "\u{0}", "\u{B}", "\u{1F}", "\u{FFFE}",
    "\u{FFFF}", "\u{FFFD}", "é", "\u{FEFF}",
];

/// One to three seeded edits of a document: delete a range of at most 12
/// bytes, insert a token, overwrite with a token, duplicate a range of at
/// most 40 bytes, truncate.
const MUTATOR: Mutator = Mutator { pieces: TOKENS, max_delete: Some(12), max_duplicate: Some(40) };

// ---------------------------------------------------------------------------
// The differential
// ---------------------------------------------------------------------------

/// `parse` and the oracle agree on `input`; or `input` holds a literal
/// character XML forbids, `parse` rejects it where it stands and the oracle
/// read past it.
fn assert_agrees(input: &str, case: &str) {
    let got = parse(input);
    let expected = recursive_parser::parse(input);
    if got == expected {
        return;
    }
    match &got {
        Err(e) if matches!(e.kind, XmlErrorKind::InvalidChar(_)) => {
            let XmlErrorKind::InvalidChar(ch) = e.kind else { unreachable!() };
            assert!(!is_xml_char(ch), "{case}: {ch:?} is legal\n{input}");
            assert!(input[e.position.offset..].starts_with(ch), "{case}: not at {e}\n{input}");
            let before = &input[..e.position.offset];
            assert_eq!(
                e.position.line as usize,
                1 + before.matches('\n').count(),
                "{case}: {e}\n{input}"
            );
            let line_start = before.rfind('\n').map_or(0, |at| at + 1);
            assert_eq!(
                e.position.column as usize,
                1 + before[line_start..].chars().count(),
                "{case}: {e}\n{input}"
            );
            // Up to the character the two agree: the oracle accepted the
            // document, or found fault with something further on.
            if let Err(oracle) = &expected {
                assert!(
                    oracle.position.offset >= e.position.offset,
                    "{case}: oracle failed earlier, with {oracle}, than {e}\n{input}"
                );
            }
        }
        _ => panic!("{case}: parse gave {got:?}\nthe oracle {expected:?}\n{input}"),
    }
}

#[test]
fn the_corpus_parses_as_the_recursive_parser_parsed_it() {
    assert_agrees(APPENDIX_A, "Appendix A");
    assert_agrees(ENTITIES, "entities");
    assert!(parse(APPENDIX_A).is_ok() && parse(ENTITIES).is_ok());
    for case in 0..cases(200) {
        let mut rng = Prng::seed_from_u64(0xD1FF + case);
        let doc = document(&mut rng);
        assert!(parse(&doc).is_ok(), "case {case}: {:?}\n{doc}", parse(&doc));
        assert_agrees(&doc, &format!("case {case}"));
    }
}

#[test]
fn mutated_documents_fail_as_the_recursive_parser_failed() {
    let (mut rejected, mut forbidden) = (0, 0);
    for case in 0..cases(1500) {
        let mut rng = Prng::seed_from_u64(0x3A7A + case);
        let doc = document(&mut rng);
        let mutant = MUTATOR.mutate(&mut rng, &doc);
        assert_agrees(&mutant, &format!("case {case}"));
        match parse(&mutant) {
            Err(e) if matches!(e.kind, XmlErrorKind::InvalidChar(_)) => forbidden += 1,
            Err(_) => rejected += 1,
            Ok(_) => {}
        }
    }
    // The mutations bite, and the one allowed divergence is exercised.
    assert!(rejected > cases(1500) / 3, "{rejected} mutants rejected");
    assert!(forbidden > 0, "no mutant held a forbidden character");
}

/// The reader's events written back out the way the compact serializer
/// writes a DOM.
fn reserialize(input: &str) -> String {
    let mut reader = Reader::new(input);
    let mut out = String::new();
    // A start tag stays open until the next event shows whether the
    // element is empty.
    let mut tag_open = false;
    while let Some(event) = reader.next_event().unwrap() {
        if tag_open && !matches!(event, Event::End { .. }) {
            out.push('>');
            tag_open = false;
        }
        match event {
            Event::Declaration(declaration) => {
                out.push_str(&declaration.to_xml());
                out.push('\n');
            }
            Event::Doctype(doctype) => {
                out.push_str(&doctype.to_xml());
                out.push('\n');
            }
            Event::Start { name, attributes } => {
                out.push('<');
                out.push_str(name);
                for attr in attributes.iter() {
                    out.push_str(&format!(" {}=\"{}\"", attr.name, escape_attr(&attr.value)));
                }
                tag_open = true;
            }
            Event::End { .. } if tag_open => {
                out.push_str("/>");
                tag_open = false;
            }
            Event::End { name } => out.push_str(&format!("</{name}>")),
            Event::Text(text) => out.push_str(&escape_text(&text)),
            Event::CData(body) => out.push_str(&format!("<![CDATA[{body}]]>")),
            Event::Comment(body) => out.push_str(&format!("<!--{body}-->")),
            Event::ProcessingInstruction { target, data: "" } => {
                out.push_str(&format!("<?{target}?>"))
            }
            Event::ProcessingInstruction { target, data } => {
                out.push_str(&format!("<?{target} {data}?>"))
            }
        }
    }
    out
}

#[test]
fn the_event_stream_reserialised_is_the_serialised_dom() {
    let whole = SerializeOptions {
        include_declaration: true,
        include_doctype: true,
        ..SerializeOptions::compact()
    };
    for doc in [APPENDIX_A, ENTITIES] {
        assert_eq!(reserialize(doc), serialize(&parse(doc).unwrap(), &whole));
    }
    for case in 0..cases(200) {
        let mut rng = Prng::seed_from_u64(0xE7E7 + case);
        let doc = document(&mut rng);
        assert_eq!(
            reserialize(&doc),
            serialize(&parse(&doc).unwrap(), &whole),
            "case {case}\n{doc}"
        );
    }
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

/// A document valid for `<!ELEMENT a (t, a?)>` whose deepest element — the
/// `t` of the innermost `a` — is at `depth`.
fn nested(depth: usize) -> String {
    let mut doc = "<a><t>x</t>".repeat(depth - 1);
    doc.push_str(&"</a>".repeat(depth - 1));
    doc
}

#[test]
fn a_hundred_thousand_nested_elements_are_a_typed_error() {
    let doc = nested(100_000);
    let started = Instant::now();
    let err = parse(&doc).unwrap_err();
    let took = started.elapsed();
    assert_eq!(err.kind, XmlErrorKind::DepthLimitExceeded);
    // At the start tag that would open a 1 025th level: the `t` of the
    // 1 024th `a`.
    assert_eq!(err.position.offset, "<a><t>x</t>".len() * (MAX_ELEMENT_DEPTH - 1) + "<a>".len());
    assert!(took < Duration::from_millis(250), "took {took:?}");
    assert!(parse(&nested(MAX_ELEMENT_DEPTH)).is_ok());
    assert_eq!(
        parse(&nested(MAX_ELEMENT_DEPTH + 1)).unwrap_err().kind,
        XmlErrorKind::DepthLimitExceeded
    );
}

#[test]
fn a_document_at_the_depth_limit_stores_and_retrieves_on_a_default_stack() {
    // An optimized build — what serves and what the benchmark measures —
    // gets the default 2 MiB stack, the one `set_load_workers` and the
    // server's connection threads run the loader, reconstructor and
    // serializer on; the round trip at the limit takes about 1.3 MiB of it.
    // An unoptimized build's frames are several times larger (`load_ops`
    // alone needs over 8 MiB at this depth, before this change as after it),
    // so tier-1's debug run checks the round trip on a stack of its own
    // choosing and leaves the stack claim to the release run.
    let mut thread = std::thread::Builder::new();
    if cfg!(debug_assertions) {
        thread = thread.stack_size(32 << 20);
    }
    let worker = thread.spawn(|| {
        let xml = nested(MAX_ELEMENT_DEPTH);
        for mode in [DbMode::Oracle9, DbMode::Oracle8] {
            let mut sys = Xml2OrDb::new(mode);
            sys.register_dtd("deep", "<!ELEMENT a (t, a?)><!ELEMENT t (#PCDATA)>", "a").unwrap();
            let doc_id = sys.store_document("deep", &xml).unwrap();
            assert_eq!(sys.retrieve_document(&doc_id).unwrap(), xml, "{mode:?}");
        }
    });
    worker.unwrap().join().expect("the walkers behind the parser fit the stack");
}

/// A seven-level entity chain: under 500 bytes that expand to 210 MB.
fn entity_chain() -> String {
    let mut doc = String::from("<!DOCTYPE r [<!ENTITY e0 \"0123456789abcdefghijk\">");
    for level in 1..=7 {
        let refs = format!("&e{};", level - 1).repeat(10);
        doc.push_str(&format!("<!ENTITY e{level} \"{refs}\">"));
    }
    doc.push_str("]><r>&e7;</r>");
    doc
}

#[test]
fn an_entity_chain_is_refused_within_its_budget() {
    let doc = entity_chain();
    assert!(doc.len() < 500);
    let started = Instant::now();
    let (err, transient) = peak_above(|| parse(&doc).unwrap_err());
    let took = started.elapsed();
    assert_eq!(err.kind, XmlErrorKind::EntityExpansionLimit);
    // The error stands at the reference in the document.
    assert_eq!(err.position.offset, doc.find("&e7;</r>").unwrap());
    assert!(took < Duration::from_millis(50), "took {took:?}");
    // Other tests of this binary allocate while this one runs; none of
    // them holds megabytes.
    assert!(transient < 16 << 20, "{transient} bytes at the peak");

    // Under the budget the same machinery expands: each entity once, each
    // occurrence a copy.
    let small = doc.replace("&e7;</r>", "&e4;&e4;</r>");
    let parsed = parse(&small).unwrap();
    let text = parsed.text_content(parsed.root_element().unwrap());
    assert_eq!(text.len(), 2 * 21 * 10_000);
    assert!(text.len() < MAX_ENTITY_EXPANSION_BYTES);
    // And the budget is the document's, not the reference's: many
    // references to an entity that fits fail once their sum does not.
    let many = doc.replace("&e7;</r>", &format!("{}</r>", "&e5;".repeat(5)));
    assert_eq!(parse(&many).unwrap_err().kind, XmlErrorKind::EntityExpansionLimit);
}

#[test]
fn a_literal_forbidden_character_is_refused_where_the_reference_to_it_is() {
    assert!(matches!(parse("<a>x&#1;y</a>").unwrap_err().kind, XmlErrorKind::InvalidCharRef(_)));
    let err = parse("<a>\nx\u{1}y</a>").unwrap_err();
    assert_eq!(err.kind, XmlErrorKind::InvalidChar('\u{1}'));
    assert_eq!((err.position.line, err.position.column, err.position.offset), (2, 2, 5));
    // The recursive parser stored it, and the serializer wrote it back.
    assert!(recursive_parser::parse("<a>\nx\u{1}y</a>").is_ok());
}
