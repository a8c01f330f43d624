//! Random-graph generators: the bounded power-law degree sequence and
//! configuration model behind the Digg2009 stand-in, and the
//! Barabási–Albert graphs the agent-based simulations run on.
//!
//! All generators are deterministic given a [`rand::Rng`] seed, which the
//! experiment harness exploits to make every figure reproducible.

mod ba;
mod config_model;
mod powerlaw_seq;

pub use ba::barabasi_albert;
pub use config_model::configuration_model;
pub use powerlaw_seq::{powerlaw_degree_sequence, PowerlawSequenceConfig};
