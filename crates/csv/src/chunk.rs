//! Chunked upload of `data.csv`.
//!
//! Section 3.2 of the paper: *"The data.csv might be very large. For scalably
//! uploading large datasets, we divide the file into 10,000 lines and send
//! each divided set to our system."*
//!
//! [`split_into_chunks`] performs the client-side split; [`ChunkedUploader`]
//! is the server-side assembler that accepts chunks (possibly out of order),
//! tracks completeness, and yields the parsed rows once every chunk has
//! arrived.

use crate::data_csv::{self, DataRow};
use crate::error::CsvError;
use std::collections::BTreeMap;

/// The paper's chunk size: 10,000 lines per chunk.
pub const DEFAULT_CHUNK_LINES: usize = 10_000;

/// One chunk of a `data.csv` upload.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// 0-based chunk index.
    pub index: usize,
    /// Total number of chunks in the upload.
    pub total: usize,
    /// Raw CSV content of this chunk (header only in chunk 0).
    pub content: String,
}

/// Splits a `data.csv` document into chunks of at most `chunk_lines` data
/// lines each. The header (if present) stays on the first chunk only.
pub fn split_into_chunks(content: &str, chunk_lines: usize) -> Vec<Chunk> {
    let chunk_lines = chunk_lines.max(1);
    let lines: Vec<&str> = content.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Vec::new();
    }
    let chunks_raw: Vec<Vec<&str>> = lines.chunks(chunk_lines).map(|c| c.to_vec()).collect();
    let total = chunks_raw.len();
    chunks_raw
        .into_iter()
        .enumerate()
        .map(|(index, ls)| Chunk {
            index,
            total,
            content: {
                let mut s = ls.join("\n");
                s.push('\n');
                s
            },
        })
        .collect()
}

/// Server-side assembler for a chunked `data.csv` upload.
///
/// Chunks may arrive in any order; each chunk is parsed on receipt so that a
/// malformed chunk is rejected immediately (and can be re-sent) instead of
/// failing the whole upload at the end. Received chunks are kept by index,
/// so the assembler's memory follows what arrived, never the announced
/// `total`.
#[derive(Debug, Default)]
pub struct ChunkedUploader {
    expected_total: Option<usize>,
    received: BTreeMap<usize, Vec<DataRow>>,
    rows_received: usize,
}

impl ChunkedUploader {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts one chunk. Returns the number of rows parsed from it.
    pub fn accept(&mut self, chunk: &Chunk) -> Result<usize, CsvError> {
        if chunk.total == 0 || chunk.index >= chunk.total {
            return Err(CsvError::BadHeader {
                file: "data.csv",
                found: format!("chunk {}/{}", chunk.index, chunk.total),
            });
        }
        match self.expected_total {
            None => self.expected_total = Some(chunk.total),
            Some(t) if t != chunk.total => {
                return Err(CsvError::BadHeader {
                    file: "data.csv",
                    found: format!("chunk count changed from {t} to {}", chunk.total),
                });
            }
            Some(_) => {}
        }
        let rows = data_csv::parse_document(&chunk.content)?;
        let n = rows.len();
        // A re-sent chunk replaces the previous copy.
        if let Some(previous) = self.received.insert(chunk.index, rows) {
            self.rows_received -= previous.len();
        }
        self.rows_received += n;
        Ok(n)
    }

    /// Number of chunks received so far.
    pub fn chunks_received(&self) -> usize {
        self.received.len()
    }

    /// Number of rows received so far.
    pub fn rows_received(&self) -> usize {
        self.rows_received
    }

    /// Whether every expected chunk has arrived.
    pub fn is_complete(&self) -> bool {
        self.expected_total.is_some() && self.missing_count() == 0
    }

    /// Number of chunks still missing (0 before the first chunk announces
    /// the total).
    pub fn missing_count(&self) -> usize {
        self.expected_total.unwrap_or(0) - self.received.len()
    }

    /// Consumes the assembler, returning all rows in chunk order. Errors when
    /// chunks are still missing.
    pub fn finish(self) -> Result<Vec<DataRow>, CsvError> {
        if !self.is_complete() {
            return Err(CsvError::BadHeader {
                file: "data.csv",
                found: format!(
                    "upload incomplete, {} of {} chunks missing",
                    self.missing_count(),
                    self.expected_total.unwrap_or(0)
                ),
            });
        }
        let mut all = Vec::with_capacity(self.rows_received);
        for chunk in self.received.into_values() {
            all.extend(chunk);
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc(rows: usize) -> String {
        let mut s = String::from("id,attribute,time,data\n");
        for i in 0..rows {
            let hour = i % 24;
            let day = 1 + i / 24;
            s.push_str(&format!(
                "{:05},temperature,2016-03-{:02} {:02}:00:00,{}\n",
                i % 7,
                day,
                hour,
                i as f64 * 0.5
            ));
        }
        s
    }

    #[test]
    fn split_counts_lines_correctly() {
        let doc = sample_doc(25);
        // 26 lines including header; chunk size 10 => 3 chunks.
        let chunks = split_into_chunks(&doc, 10);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].total, 3);
        assert!(chunks[0].content.starts_with("id,attribute"));
        assert!(!chunks[1].content.starts_with("id,attribute"));
        let total_lines: usize = chunks.iter().map(|c| c.content.lines().count()).sum();
        assert_eq!(total_lines, 26);
    }

    #[test]
    fn split_empty_document() {
        assert!(split_into_chunks("", 10).is_empty());
        assert!(split_into_chunks("\n\n", 10).is_empty());
    }

    #[test]
    fn default_chunk_size_matches_paper() {
        assert_eq!(DEFAULT_CHUNK_LINES, 10_000);
    }

    #[test]
    fn uploader_in_order() {
        let doc = sample_doc(30);
        let chunks = split_into_chunks(&doc, 8);
        let mut up = ChunkedUploader::new();
        for c in &chunks {
            up.accept(c).unwrap();
        }
        assert!(up.is_complete());
        let rows = up.finish().unwrap();
        assert_eq!(rows.len(), 30);
    }

    #[test]
    fn uploader_out_of_order_and_resend() {
        let doc = sample_doc(20);
        let chunks = split_into_chunks(&doc, 7);
        let mut up = ChunkedUploader::new();
        up.accept(&chunks[2]).unwrap();
        assert!(!up.is_complete());
        assert_eq!(up.missing_count(), 2);
        up.accept(&chunks[0]).unwrap();
        up.accept(&chunks[1]).unwrap();
        // Resend a chunk: row count must not double-count.
        up.accept(&chunks[1]).unwrap();
        assert!(up.is_complete());
        let rows = up.finish().unwrap();
        assert_eq!(rows.len(), 20);
        // Rows come back in chunk order => timestamps of the first chunk first.
        assert_eq!(rows[0].id.as_str(), "00000");
    }

    #[test]
    fn uploader_rejects_incomplete_finish() {
        let doc = sample_doc(20);
        let chunks = split_into_chunks(&doc, 7);
        let mut up = ChunkedUploader::new();
        up.accept(&chunks[0]).unwrap();
        assert!(up.finish().is_err());
    }

    #[test]
    fn uploader_rejects_inconsistent_totals() {
        let doc = sample_doc(20);
        let chunks = split_into_chunks(&doc, 7);
        let mut up = ChunkedUploader::new();
        up.accept(&chunks[0]).unwrap();
        let mut bad = chunks[1].clone();
        bad.total = 99;
        assert!(up.accept(&bad).is_err());
    }

    #[test]
    fn uploader_rejects_bad_index() {
        let mut up = ChunkedUploader::new();
        let bad = Chunk {
            index: 5,
            total: 3,
            content: String::new(),
        };
        assert!(up.accept(&bad).is_err());
    }

    #[test]
    fn malformed_chunk_rejected_immediately() {
        let mut up = ChunkedUploader::new();
        let bad = Chunk {
            index: 0,
            total: 1,
            content: "00000,temperature,not-a-time,1.0\n".to_string(),
        };
        assert!(up.accept(&bad).is_err());
    }
}
