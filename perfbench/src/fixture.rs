//! Workload inputs and the set-up path: datasets rendered to the upload
//! files, the chunked upload through the router, append batches as
//! `data.csv` text, and the client-side copy of the served content.

use crate::wire::Wire;
use miscela_csv::data_csv::{format_float, parse_document};
use miscela_csv::{split_into_chunks, DatasetLoader, DatasetWriter, DEFAULT_CHUNK_LINES};
use miscela_model::{AppendRow, Dataset};
use miscela_server::{Method, MiscelaService};
use miscela_store::Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request texts of one chunked upload, plus the content as the
/// client holds it (parsed from the same files the server receives).
pub struct Upload {
    /// Dataset name.
    pub name: String,
    /// `upload/begin` body.
    pub begin: String,
    /// `upload/chunk` bodies.
    pub chunks: Vec<String>,
    /// The dataset parsed from the uploaded files: byte for byte the
    /// content the server mines.
    pub content: Dataset,
}

impl Upload {
    /// Renders `dataset` to the three upload files.
    pub fn new(name: &str, dataset: &Dataset) -> Upload {
        let writer = DatasetWriter::new();
        let (data, location, attribute) = (
            writer.data_csv(dataset),
            writer.location_csv(dataset),
            writer.attribute_csv(dataset),
        );
        let begin = Json::from_pairs([
            ("location_csv", Json::from(location.as_str())),
            ("attribute_csv", Json::from(attribute.as_str())),
        ])
        .to_string_compact();
        let chunks = split_into_chunks(&data, DEFAULT_CHUNK_LINES)
            .iter()
            .map(|c| {
                Json::from_pairs([
                    ("index", Json::from(c.index)),
                    ("total", Json::from(c.total)),
                    ("content", Json::from(c.content.as_str())),
                ])
                .to_string_compact()
            })
            .collect();
        let content = DatasetLoader::new(name)
            .load_documents(&data, &location, &attribute)
            .expect("generated upload files parse");
        Upload {
            name: name.to_string(),
            begin,
            chunks,
            content,
        }
    }

    /// Drives the chunked upload through `wire`.
    pub fn send(&self, wire: &Wire) -> Result<(), String> {
        let base = format!("/datasets/{}/upload", self.name);
        let bodies = std::iter::once(("begin", self.begin.as_str()))
            .chain(self.chunks.iter().map(|c| ("chunk", c.as_str())))
            .chain(std::iter::once(("finish", "{}")));
        for (step, body) in bodies {
            let reply = wire.call(Method::Post, &format!("{base}/{step}"), &[], body);
            if !reply.ok() {
                return Err(format!("upload {step}: {} {}", reply.status, reply.text));
            }
        }
        Ok(())
    }

    /// Set-up as a user sees it: a fresh service, then the chunked upload
    /// until the finish is acknowledged. Returns the connection and the
    /// elapsed time.
    pub fn set_up(&self) -> Result<(Wire, Duration), String> {
        let started = Instant::now();
        let wire = Wire::new(Arc::new(MiscelaService::new()));
        self.send(&wire)?;
        Ok((wire, started.elapsed()))
    }
}

/// Renders append rows as a `data.csv` document, values formatted the way
/// the upload files are.
pub fn append_csv(rows: &[AppendRow]) -> String {
    let mut out = String::from("id,attribute,time,data\n");
    for r in rows {
        let value = r.value.map_or("null".to_string(), format_float);
        out.push_str(&format!(
            "{},{},{},{}\n",
            r.sensor.as_str(),
            r.attribute,
            r.time.format(),
            value
        ));
    }
    out
}

/// Applies an append document to the client's copy exactly as the server
/// parses it.
pub fn apply_append(content: &mut Dataset, csv: &str) -> Result<(), String> {
    let rows = parse_document(csv).map_err(|e| e.to_string())?;
    DatasetLoader::append(content, &rows).map_err(|e| e.to_string())?;
    Ok(())
}
