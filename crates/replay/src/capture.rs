//! Turning a live run's ingress stream into a `.swtrace`.
//!
//! [`swishmem::Deployment::attach_capture`] taps every externally
//! injected packet (scheduled time + clone) without perturbing the run;
//! this module converts that tap's contents into trace records —
//! host-sourced data packets become [`TraceRecord`]s with the ingress
//! switch index resolved through the deployment's switch table, and
//! everything else (protocol traffic, control injections) is skipped.
//! Capture → `.swtrace` → replay closes the loop: any run whose inputs
//! were taped can be re-run bit-identically, transformed into a
//! scenario, or promoted to a regression trace.

use swishmem::prelude::*;
use swishmem::Deployment;
use swishmem_simnet::CaptureHandle;
use swishmem_wire::{Packet, PacketBody};

use crate::format::TraceRecord;

/// Convert captured `(time, packet)` pairs into trace records, resolving
/// ingress switch indices via `dep`. Non-data and non-switch-bound
/// packets are skipped; returns `(records, skipped)`.
pub fn captured_to_records(
    dep: &Deployment,
    captured: &[(SimTime, Packet)],
) -> (Vec<TraceRecord>, u64) {
    let mut out = Vec::with_capacity(captured.len());
    let mut skipped = 0u64;
    for (t, pkt) in captured {
        let PacketBody::Data(data) = &pkt.body else {
            skipped += 1;
            continue;
        };
        let Some(sw) = dep.switch_index(pkt.dst) else {
            skipped += 1;
            continue;
        };
        if pkt.src.0 < HOST_BASE {
            skipped += 1;
            continue;
        }
        out.push(TraceRecord {
            time_ns: t.nanos(),
            src_ip: u32::from(data.flow.src),
            dst_ip: u32::from(data.flow.dst),
            src_port: data.flow.src_port,
            dst_port: data.flow.dst_port,
            ingress: sw as u16,
            proto: data.flow.proto,
            tcp_flags: data.tcp_flags.raw(),
            flow_seq: data.flow_seq,
            payload_len: data.payload_len,
        });
    }
    (out, skipped)
}

/// Drain a capture tap into trace records (see [`captured_to_records`]).
pub fn capture_deployment_trace(dep: &Deployment, tap: &CaptureHandle) -> (Vec<TraceRecord>, u64) {
    let buf = tap.borrow();
    captured_to_records(dep, buf.events())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{to_swtrace_bytes, TraceMeta};
    use crate::replay::{replay_records, ReplayConfig};
    use crate::synth::{synth_trace_bytes, SynthConfig};
    use swishmem::{NfDecision, SharedState};

    struct CountNf;

    impl swishmem::NfApp for CountNf {
        fn process(
            &mut self,
            pkt: &DataPacket,
            _ingress: NodeId,
            st: &mut dyn SharedState,
        ) -> NfDecision {
            st.add(0, u32::from(pkt.flow.dst_port) % 32, 1);
            NfDecision::Forward {
                dst: NodeId(HOST_BASE),
                pkt: *pkt,
            }
        }
    }

    fn dep(seed: u64) -> Deployment {
        let mut dep = DeploymentBuilder::new(3)
            .hosts(2)
            .seed(seed)
            .register(RegisterSpec::ewo_counter(0, "cnt", 32))
            .build(|_| Box::new(CountNf));
        dep.settle();
        dep
    }

    #[test]
    fn capture_of_a_replay_reproduces_the_packets() {
        let trace = synth_trace_bytes(
            &SynthConfig {
                flows: 200,
                ingress: 3,
                ..SynthConfig::default()
            },
            9,
        );
        let (_, records) = crate::format::from_swtrace_bytes(&trace).unwrap();

        // Replay with the tap armed; the tap must see exactly the
        // injected stream.
        let mut d = dep(5);
        let tap = d.attach_capture(1 << 20);
        replay_records(&mut d, &records, &ReplayConfig::default());
        let (captured, skipped) = capture_deployment_trace(&d, &tap);
        assert_eq!(skipped, 0, "a replay injects only host data packets");
        assert_eq!(captured.len(), records.len());

        // The captured stream is itself a valid, replayable trace.
        let bytes = to_swtrace_bytes(&captured, TraceMeta::new(3, 5, "capture")).unwrap();
        let (meta, back) = crate::format::from_swtrace_bytes(&bytes).unwrap();
        assert_eq!(meta.record_count, captured.len() as u64);
        // Packet content round-trips (times were rebased by the replay
        // clock mapping, so compare the packet fields).
        for (c, r) in back.iter().zip(records.iter()) {
            assert_eq!(c.to_packet(), r.to_packet());
        }
    }
}
