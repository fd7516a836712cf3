//! Paper-evaluation library: the table/figure regenerators behind the
//! `tables` binary and the measured CPU baseline they read.

#![forbid(unsafe_code)]

pub mod cpu_baseline;
pub mod tables;
