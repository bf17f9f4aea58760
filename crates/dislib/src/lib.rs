//! Distributed machine learning for the `continuum` runtime — the
//! dislib-equivalent of the paper (§VI-C: "a distributed computing
//! library for machine learning which is internally parallelized with
//! PyCOMPSs", offering "a simple and easy to use interface").
//!
//! Data lives in [`DistMatrix`] — a row-block-partitioned dense matrix
//! whose blocks are values in a [`continuum_runtime::LocalRuntime`]
//! dataflow — and estimators follow the scikit-learn-style
//! `fit`/`predict`/`transform` convention dislib adopts:
//!
//! * [`KMeans`] — Lloyd's algorithm with per-block partial reductions;
//! * [`KnnClassifier`] — k-nearest neighbours with per-block candidate
//!   search;
//! * [`GaussianNb`] — Gaussian naive Bayes from blocked sufficient
//!   statistics;
//! * [`LinearRegression`] — ordinary least squares via blocked normal
//!   equations;
//! * [`StandardScaler`] — per-column standardisation;
//! * [`Pca`] — principal components through power iteration on the
//!   blocked covariance matrix.
//!
//! Every estimator builds a task graph: block-level partials run in
//! parallel across the runtime's workers, reductions merge them, and
//! results come back through typed handles.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod error;
mod kernels;
mod kmeans;
mod knn;
mod linreg;
mod matrix;
pub mod metrics;
mod naive_bayes;
mod pca;
mod scaler;

pub use array::DistMatrix;
pub use error::DislibError;
pub use kernels::kernel_isa;
pub use kmeans::{KMeans, KMeansModel};
pub use knn::{KnnClassifier, KnnModel};
pub use linreg::{LinearModel, LinearRegression};
pub use matrix::Matrix;
pub use naive_bayes::{GaussianNb, GaussianNbModel};
pub use pca::{Pca, PcaModel};
pub use scaler::StandardScaler;
