//! Round-trip fidelity measurement (experiment E9).
//!
//! The paper's §6.1 and §7 enumerate what the mapping loses: comments,
//! processing instructions, entity references (unless the meta-data is
//! used), the ordering of elements stored through references, and the
//! interleaving of mixed content. This module *measures* those losses by
//! comparing the original document with its reconstruction.

use xmlord_xml::{Document, NodeId, NodeKind};

/// One observed difference between original and restored document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Loss {
    /// A comment did not survive (expected per §7).
    Comment { path: String },
    /// A processing instruction did not survive (expected per §7).
    ProcessingInstruction { path: String },
    /// A CDATA section came back as plain text.
    CDataDemoted { path: String },
    /// Whitespace between elements was not preserved.
    Whitespace { path: String },
    /// Same children, different order (REF storage, §7).
    OrderChanged { path: String },
    /// Mixed-content text was concatenated (interleaving lost).
    MixedInterleaving { path: String },
    /// Text content differs.
    TextChanged { path: String, original: String, restored: String },
    /// Attribute missing or value changed.
    AttributeChanged { path: String, attribute: String },
    /// Element missing, added, or renamed — structural damage.
    ElementChanged { path: String, detail: String },
}

impl Loss {
    /// Losses the paper explicitly accepts (§6.1/§7) versus real damage.
    pub fn is_expected(&self) -> bool {
        !matches!(
            self,
            Loss::TextChanged { .. } | Loss::AttributeChanged { .. } | Loss::ElementChanged { .. }
        )
    }
}

/// The outcome of comparing original and restored documents.
#[derive(Debug, Clone, Default)]
pub struct FidelityReport {
    pub losses: Vec<Loss>,
}

impl FidelityReport {
    /// No differences at all.
    pub fn is_exact(&self) -> bool {
        self.losses.is_empty()
    }

    /// All data (elements, attributes, text) survived; only the losses the
    /// paper accepts occurred.
    pub fn data_preserved(&self) -> bool {
        self.losses.iter().all(Loss::is_expected)
    }

    pub fn count(&self, pred: impl Fn(&Loss) -> bool) -> usize {
        self.losses.iter().filter(|l| pred(l)).count()
    }
}

/// Compare `original` against `restored`.
pub fn compare(original: &Document, restored: &Document) -> FidelityReport {
    let mut report = FidelityReport::default();
    match (original.root_element(), restored.root_element()) {
        (Some(a), Some(b)) => {
            compare_elements(original, a, restored, b, &mut String::new(), &mut report)
        }
        (None, None) => {}
        _ => report.losses.push(Loss::ElementChanged {
            path: String::new(),
            detail: "one document has no root element".into(),
        }),
    }
    // Prolog/epilog comments and PIs.
    for id in original.prolog_misc.iter().chain(&original.epilog_misc) {
        match original.kind(*id) {
            NodeKind::Comment(_) => {
                report.losses.push(Loss::Comment { path: "(prolog)".into() })
            }
            NodeKind::ProcessingInstruction { .. } => report
                .losses
                .push(Loss::ProcessingInstruction { path: "(prolog)".into() }),
            _ => {}
        }
    }
    // Remove prolog losses again when the restored document *does* carry
    // them (e.g. an extended pipeline).
    if !restored.prolog_misc.is_empty() || !restored.epilog_misc.is_empty() {
        report.losses.retain(|l| {
            !matches!(l, Loss::Comment { path } | Loss::ProcessingInstruction { path }
                if path == "(prolog)")
        });
    }
    report
}

fn compare_elements(
    a_doc: &Document,
    a: NodeId,
    b_doc: &Document,
    b: NodeId,
    path: &mut String,
    report: &mut FidelityReport,
) {
    let a_name = a_doc.name(a).as_raw();
    let b_name = b_doc.name(b).as_raw();
    let saved_len = path.len();
    path.push('/');
    path.push_str(a_name);
    if a_name != b_name {
        report.losses.push(Loss::ElementChanged {
            path: path.clone(),
            detail: format!("<{a_name}> became <{b_name}>"),
        });
        path.truncate(saved_len);
        return;
    }

    // Attributes as sets (XML attribute order is not significant).
    for attr in a_doc.attributes(a) {
        match b_doc.attribute(b, attr.name.as_raw()) {
            Some(v) if v == attr.value => {}
            _ => report.losses.push(Loss::AttributeChanged {
                path: path.clone(),
                attribute: attr.name.as_raw().to_string(),
            }),
        }
    }
    for attr in b_doc.attributes(b) {
        if a_doc.attribute(a, attr.name.as_raw()).is_none() {
            report.losses.push(Loss::AttributeChanged {
                path: path.clone(),
                attribute: attr.name.as_raw().to_string(),
            });
        }
    }

    // Non-element child inventory.
    for child in a_doc.children(a) {
        match a_doc.kind(*child) {
            NodeKind::Comment(_) => {
                report.losses.push(Loss::Comment { path: path.clone() })
            }
            NodeKind::ProcessingInstruction { .. } => report
                .losses
                .push(Loss::ProcessingInstruction { path: path.clone() }),
            NodeKind::CData(_) => {
                report.losses.push(Loss::CDataDemoted { path: path.clone() })
            }
            _ => {}
        }
    }

    // Text: compare the concatenated direct text. Whitespace-only original
    // text that vanished is a Whitespace loss, not damage.
    let a_text = direct_text(a_doc, a);
    let b_text = direct_text(b_doc, b);
    if a_text != b_text {
        let whitespace_only = a_text.trim() == b_text.trim()
            || (a_text.trim().is_empty() && b_text.is_empty());
        if whitespace_only {
            report.losses.push(Loss::Whitespace { path: path.clone() });
        } else {
            report.losses.push(Loss::TextChanged {
                path: path.clone(),
                original: a_text.clone(),
                restored: b_text.clone(),
            });
        }
    }
    // Mixed interleaving: text plus elements present, text survived only in
    // concatenated form. Detect: multiple original direct text runs.
    let a_text_runs = a_doc
        .children(a)
        .iter()
        .filter(|c| matches!(a_doc.kind(**c), NodeKind::Text(t) if !t.trim().is_empty()))
        .count();
    if a_text_runs > 1 && !a_doc.child_elements(a).is_empty() {
        report.losses.push(Loss::MixedInterleaving { path: path.clone() });
    }

    // Element children.
    let a_children = a_doc.child_elements(a);
    let b_children = b_doc.child_elements(b);
    let a_names: Vec<&str> = a_children.iter().map(|c| a_doc.name(*c).as_raw()).collect();
    let b_names: Vec<&str> = b_children.iter().map(|c| b_doc.name(*c).as_raw()).collect();
    if a_names != b_names {
        let mut a_sorted = a_names.clone();
        let mut b_sorted = b_names.clone();
        a_sorted.sort();
        b_sorted.sort();
        if a_sorted == b_sorted {
            report.losses.push(Loss::OrderChanged { path: path.clone() });
        } else {
            report.losses.push(Loss::ElementChanged {
                path: path.clone(),
                detail: format!("children ({}) became ({})", a_names.join(","), b_names.join(",")),
            });
            path.truncate(saved_len);
            return;
        }
    }
    // Pair same-named children in order and recurse.
    let mut b_used = vec![false; b_children.len()];
    for (i, a_child) in a_children.iter().enumerate() {
        let a_child_name = &a_names[i];
        let mate = b_children
            .iter()
            .enumerate()
            .find(|(j, _)| !b_used[*j] && &b_names[*j] == a_child_name);
        if let Some((j, b_child)) = mate {
            b_used[j] = true;
            compare_elements(a_doc, *a_child, b_doc, *b_child, path, report);
        }
    }
    path.truncate(saved_len);
}

fn direct_text(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    for child in doc.children(node) {
        match doc.kind(*child) {
            NodeKind::Text(t) | NodeKind::CData(t) => out.push_str(t),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlord_xml::parse;

    fn report(a: &str, b: &str) -> FidelityReport {
        compare(&parse(a).unwrap(), &parse(b).unwrap())
    }

    #[test]
    fn identical_documents_are_exact() {
        let r = report("<a x=\"1\"><b>t</b></a>", "<a x=\"1\"><b>t</b></a>");
        assert!(r.is_exact(), "{:?}", r.losses);
    }

    #[test]
    fn lost_comment_is_expected_loss() {
        let r = report("<a><!--note--><b/></a>", "<a><b/></a>");
        assert!(!r.is_exact());
        assert!(r.data_preserved());
        assert_eq!(r.count(|l| matches!(l, Loss::Comment { .. })), 1);
    }

    #[test]
    fn lost_pi_is_expected_loss() {
        let r = report("<a><?pi d?></a>", "<a/>");
        assert!(r.data_preserved());
        assert_eq!(r.count(|l| matches!(l, Loss::ProcessingInstruction { .. })), 1);
    }

    #[test]
    fn changed_text_is_damage() {
        let r = report("<a>x</a>", "<a>y</a>");
        assert!(!r.data_preserved());
        assert!(matches!(&r.losses[0], Loss::TextChanged { original, restored, .. }
            if original == "x" && restored == "y"));
    }

    #[test]
    fn missing_attribute_is_damage() {
        let r = report("<a x=\"1\"/>", "<a/>");
        assert!(!r.data_preserved());
        // Added attribute too.
        let r2 = report("<a/>", "<a x=\"1\"/>");
        assert!(!r2.data_preserved());
    }

    #[test]
    fn reordered_children_is_expected_loss() {
        let r = report("<a><b>1</b><c>2</c></a>", "<a><c>2</c><b>1</b></a>");
        assert!(r.data_preserved());
        assert_eq!(r.count(|l| matches!(l, Loss::OrderChanged { .. })), 1);
    }

    #[test]
    fn dropped_element_is_damage() {
        let r = report("<a><b/></a>", "<a/>");
        assert!(!r.data_preserved());
        assert!(matches!(&r.losses[0], Loss::ElementChanged { .. }));
    }

    #[test]
    fn whitespace_normalization_is_expected_loss() {
        let r = report("<a>\n  <b>x</b>\n</a>", "<a><b>x</b></a>");
        assert!(r.data_preserved(), "{:?}", r.losses);
        assert!(r.count(|l| matches!(l, Loss::Whitespace { .. })) >= 1);
    }

    #[test]
    fn cdata_demotion_is_expected_loss() {
        let r = report("<a><![CDATA[raw]]></a>", "<a>raw</a>");
        assert!(r.data_preserved(), "{:?}", r.losses);
        assert_eq!(r.count(|l| matches!(l, Loss::CDataDemoted { .. })), 1);
    }

    #[test]
    fn mixed_interleaving_detected() {
        let r = report("<p>a<b/>c</p>", "<p>ac<b/></p>");
        assert!(r.count(|l| matches!(l, Loss::MixedInterleaving { .. })) == 1, "{:?}", r.losses);
        assert!(r.data_preserved(), "{:?}", r.losses);
    }

    #[test]
    fn renamed_element_is_damage_with_path() {
        let r = report("<a><b><c/></b></a>", "<a><b><d/></b></a>");
        assert!(!r.data_preserved());
        // The damage is reported below /a/b.
        assert!(r.losses.iter().any(|l| matches!(l, Loss::ElementChanged { path, .. }
            if path.starts_with("/a/b"))));
    }

    #[test]
    fn prolog_comment_loss_detected() {
        let r = report("<!--head--><a/>", "<a/>");
        assert_eq!(r.count(|l| matches!(l, Loss::Comment { .. })), 1);
    }
}
