//! `validate FILE...`: checks JSON documents against the declared schema
//! of every document the workspace writes ([`spt_attrib::DOCUMENTS`]).
//! Prints one line per file; exits 1 if any file is unreadable or
//! invalid, 2 without a file.

use spt_attrib::DOCUMENTS;
use spt_util::schema::{read_document, validate};
use std::path::Path;
use std::process::exit;

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() || files.iter().any(|f| f.starts_with('-')) {
        eprintln!("usage: validate FILE...");
        exit(2);
    }
    let mut all_valid = true;
    for file in &files {
        match read_document(Path::new(file)).map(|doc| validate(&doc, &DOCUMENTS)) {
            Ok(Ok(schema)) => {
                println!("{file}: valid {}", schema.name());
                continue;
            }
            Ok(Err(e)) => eprintln!("{file}: INVALID: {e}"),
            Err(e) => eprintln!("{file}: cannot read: {e}"),
        }
        all_valid = false;
    }
    if !all_valid {
        exit(1);
    }
}
