//! Crate tests that span modules.

mod translation_oracle;
