//! Compile-time thread-safety guarantees.
//!
//! rota-server shares admission controllers (and the policies inside
//! them) behind per-shard locks across connection threads, so these
//! bounds are load-bearing API surface:
//! if a future change introduces an `Rc`/`RefCell` or a raw pointer,
//! this file stops compiling instead of the server crate breaking at a
//! distance.

use rota_admission::{
    AdmissionController, AdmissionRequest, ControllerStats, Decision, GreedyEdfPolicy,
    NaiveTotalPolicy, OptimisticPolicy, RotaPolicy,
};

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn policies_are_send_and_sync() {
    assert_send_sync::<RotaPolicy>();
    assert_send_sync::<NaiveTotalPolicy>();
    assert_send_sync::<OptimisticPolicy>();
    assert_send_sync::<GreedyEdfPolicy>();
}

#[test]
fn controllers_are_send() {
    assert_send::<AdmissionController<RotaPolicy>>();
    assert_send::<AdmissionController<NaiveTotalPolicy>>();
    assert_send::<AdmissionController<OptimisticPolicy>>();
    assert_send::<AdmissionController<GreedyEdfPolicy>>();
}

#[test]
fn request_and_decision_types_are_send_and_sync() {
    assert_send_sync::<AdmissionRequest>();
    assert_send_sync::<Decision>();
    assert_send_sync::<ControllerStats>();
}
