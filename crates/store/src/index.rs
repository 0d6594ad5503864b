//! Secondary hash indexes on document fields.
//!
//! The caching mechanism looks up CAP results by `(dataset, signature)` on
//! every mining request (Section 3.3); with many cached results a full scan
//! per request would defeat the purpose, so collections can maintain hash
//! indexes on chosen field paths. Index keys are the compact JSON encoding
//! of the field value, which makes them type-faithful (the number `1` and
//! the string `"1"` index differently).

use crate::document::{Document, DocumentId};
use crate::json::Json;
use std::collections::{HashMap, HashSet};

/// A hash index over one (possibly nested) field path.
#[derive(Debug, Clone, Default)]
pub struct FieldIndex {
    path: String,
    entries: HashMap<String, HashSet<DocumentId>>,
}

impl FieldIndex {
    /// Creates an empty index on `path`.
    pub fn new(path: impl Into<String>) -> Self {
        FieldIndex {
            path: path.into(),
            entries: HashMap::new(),
        }
    }

    /// The indexed field path.
    pub fn path(&self) -> &str {
        &self.path
    }

    fn key_for(value: &Json) -> String {
        value.to_string_compact()
    }

    /// Indexes a document (no-op when the field is absent).
    pub fn insert(&mut self, doc: &Document) {
        if let Some(v) = doc.get_path(&self.path) {
            self.entries
                .entry(Self::key_for(v))
                .or_default()
                .insert(doc.id);
        }
    }

    /// Removes a document from the index.
    pub fn remove(&mut self, doc: &Document) {
        if let Some(v) = doc.get_path(&self.path) {
            let key = Self::key_for(v);
            if let Some(set) = self.entries.get_mut(&key) {
                set.remove(&doc.id);
                if set.is_empty() {
                    self.entries.remove(&key);
                }
            }
        }
    }

    /// Document ids whose indexed field equals `value`.
    pub fn lookup(&self, value: &Json) -> Vec<DocumentId> {
        self.entries
            .get(&Self::key_for(value))
            .map(|s| {
                let mut v: Vec<DocumentId> = s.iter().copied().collect();
                v.sort();
                v
            })
            .unwrap_or_default()
    }

    /// Number of documents whose indexed field equals `value`: the cost of
    /// answering that equality through this index.
    pub fn count(&self, value: &Json) -> usize {
        self.entries
            .get(&Self::key_for(value))
            .map_or(0, HashSet::len)
    }

    /// Number of distinct indexed values.
    pub fn cardinality(&self) -> usize {
        self.entries.len()
    }

    /// Rebuilds the index from scratch over the given documents.
    pub fn rebuild<'a, I: IntoIterator<Item = &'a Document>>(&mut self, docs: I) {
        self.entries.clear();
        for d in docs {
            self.insert(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u64, json: &str) -> Document {
        Document::new(DocumentId(id), Json::parse(json).unwrap())
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = FieldIndex::new("dataset");
        let d1 = doc(1, r#"{"dataset":"santander"}"#);
        let d2 = doc(2, r#"{"dataset":"china6"}"#);
        let d3 = doc(3, r#"{"dataset":"santander"}"#);
        idx.insert(&d1);
        idx.insert(&d2);
        idx.insert(&d3);
        assert_eq!(
            idx.lookup(&"santander".into()),
            vec![DocumentId(1), DocumentId(3)]
        );
        assert_eq!(idx.lookup(&"china6".into()), vec![DocumentId(2)]);
        assert!(idx.lookup(&"covid".into()).is_empty());
        assert_eq!(idx.count(&"santander".into()), 2);
        assert_eq!(idx.count(&"covid".into()), 0);
        assert_eq!(idx.cardinality(), 2);
        idx.remove(&d1);
        assert_eq!(idx.lookup(&"santander".into()), vec![DocumentId(3)]);
        idx.remove(&d3);
        assert_eq!(idx.cardinality(), 1);
    }

    #[test]
    fn nested_path_and_type_distinction() {
        let mut idx = FieldIndex::new("params.psi");
        let d1 = doc(1, r#"{"params":{"psi":10}}"#);
        let d2 = doc(2, r#"{"params":{"psi":"10"}}"#);
        idx.insert(&d1);
        idx.insert(&d2);
        assert_eq!(idx.lookup(&Json::from(10i64)), vec![DocumentId(1)]);
        assert_eq!(idx.lookup(&Json::from("10")), vec![DocumentId(2)]);
    }

    #[test]
    fn missing_field_not_indexed() {
        let mut idx = FieldIndex::new("dataset");
        let d = doc(1, r#"{"other":"x"}"#);
        idx.insert(&d);
        assert_eq!(idx.cardinality(), 0);
        // Removing a non-indexed document is a no-op.
        idx.remove(&d);
    }

    #[test]
    fn rebuild_from_documents() {
        let docs = [
            doc(1, r#"{"k":"a"}"#),
            doc(2, r#"{"k":"b"}"#),
            doc(3, r#"{"k":"a"}"#),
        ];
        let mut idx = FieldIndex::new("k");
        idx.rebuild(docs.iter());
        assert_eq!(idx.lookup(&"a".into()).len(), 2);
        idx.rebuild(docs[..1].iter());
        assert_eq!(idx.lookup(&"a".into()).len(), 1);
        assert!(idx.lookup(&"b".into()).is_empty());
    }
}
