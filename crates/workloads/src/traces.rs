//! Activation-trace serialization: feed *real* traces to the simulators.
//!
//! The reproduction generates calibrated synthetic streams, but everything
//! downstream only needs per-layer neuron tensors — so users who can run
//! the original networks can dump their activations and evaluate every
//! engine on real data. The `PRAT` format is deliberately simple:
//!
//! ```text
//! magic   b"PRAT"
//! u32 LE  version (1)
//! u32 LE  representation bits (8 or 16)
//! u32 LE  layer count
//! per layer:
//!   u32 LE       name length, then UTF-8 name bytes
//!   u32 LE ×3    dims x, y, i
//!   u16 LE ×len  stored neuron values, tensor storage order
//! ```

use std::io::{self, Read, Write};

use pra_tensor::{Dim3, Tensor3};

use crate::generator::{layer_views, NetworkWorkload, Representation};
use crate::networks::Network;

const MAGIC: &[u8; 4] = b"PRAT";
const VERSION: u32 = 1;

/// Writes a network workload's activation streams as a trace.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_trace<W: Write>(mut w: W, workload: &NetworkWorkload) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&workload.repr.bits().to_le_bytes())?;
    w.write_all(&(workload.layers.len() as u32).to_le_bytes())?;
    for layer in &workload.layers {
        let name = layer.spec.name().as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        let d = layer.neurons.dim();
        for v in [d.x, d.y, d.i] {
            w.write_all(&(v as u32).to_le_bytes())?;
        }
        for &v in layer.neurons.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// One layer read back from a trace.
#[derive(Debug, Clone)]
pub struct TraceLayer {
    /// Layer name recorded in the trace.
    pub name: String,
    /// The stored neuron values.
    pub neurons: Tensor3<u16>,
}

/// Reads a trace: the representation plus each layer's neuron tensor.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for a bad magic, version or
/// representation width, a truncated payload, an 8-bit trace holding
/// wider values, or bytes left over after the last layer, besides
/// propagating I/O errors from `r`.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<(Representation, Vec<TraceLayer>)> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    parse_trace(&bytes)
}

/// The decoder behind [`read_trace`], total over any input: every
/// length is checked arithmetic, and each layer is bounded by the bytes
/// left before anything is allocated, so a crafted header (a cache
/// entry, a user trace) can neither overflow a size nor ask for memory
/// the input does not hold. Any mismatch is an error, never a panic.
fn parse_trace(bytes: &[u8]) -> io::Result<(Representation, Vec<TraceLayer>)> {
    let mut rest = bytes.strip_prefix(MAGIC).ok_or_else(|| bad("not a PRAT trace (bad magic)"))?;
    if take_u32(&mut rest)? != VERSION {
        return Err(bad("unsupported PRAT version"));
    }
    let repr = match take_u32(&mut rest)? {
        16 => Representation::Fixed16,
        8 => Representation::Quant8,
        other => return Err(bad(format!("unsupported representation width {other}"))),
    };
    // A layer's name length and dims alone take 16 bytes.
    let layers = take_u32(&mut rest)? as usize;
    if layers > rest.len() / 16 {
        return Err(bad("layer count exceeds the trace"));
    }
    let mut out = Vec::with_capacity(layers);
    for _ in 0..layers {
        let name_len = take_u32(&mut rest)? as usize;
        let name = std::str::from_utf8(take(&mut rest, name_len)?)
            .map_err(|_| bad("layer name is not UTF-8"))?
            .to_string();
        let dim = Dim3::new(
            take_u32(&mut rest)? as usize,
            take_u32(&mut rest)? as usize,
            take_u32(&mut rest)? as usize,
        );
        let len = dim.checked_len().and_then(|n| n.checked_mul(2));
        let raw = take(&mut rest, len.ok_or_else(|| bad("layer dims overflow"))?)?;
        let data: Vec<u16> =
            raw.as_chunks::<2>().0.iter().map(|&c| u16::from_le_bytes(c)).collect();
        if repr == Representation::Quant8 && data.iter().any(|&v| v > 255) {
            return Err(bad("8-bit trace contains values above 255"));
        }
        out.push(TraceLayer { name, neurons: Tensor3::from_vec(dim, data) });
    }
    if !rest.is_empty() {
        return Err(bad("trailing bytes after the last layer"));
    }
    Ok((repr, out))
}

/// Rebuilds a [`NetworkWorkload`] from a trace, attaching `network`'s
/// layer geometry and Table II precision windows ([`layer_views`]). Layer
/// tensors must match the network's input dimensions layer by layer.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] if the trace does not decode
/// ([`read_trace`]) or its layer count or any tensor shape does not match
/// `network`.
pub fn workload_from_trace<R: Read>(mut r: R, network: Network) -> io::Result<NetworkWorkload> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    workload_from_bytes(&bytes, network)
}

/// [`workload_from_trace`] over a trace already in memory — a cache
/// entry's payload — without copying it.
pub(crate) fn workload_from_bytes(bytes: &[u8], network: Network) -> io::Result<NetworkWorkload> {
    let (repr, traced) = parse_trace(bytes)?;
    let views = layer_views(network, repr);
    if traced.len() != views.len() {
        return Err(bad(format!(
            "trace has {} layers but {network} has {}",
            traced.len(),
            views.len()
        )));
    }
    let layers = views
        .into_iter()
        .zip(traced)
        .map(|(view, t)| {
            if t.neurons.dim() != view.spec.input {
                return Err(bad(format!(
                    "layer {}: trace dims {:?} but the network expects {:?}",
                    view.spec.name(),
                    t.neurons.dim(),
                    view.spec.input
                )));
            }
            Ok(view.with_neurons(t.neurons))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(NetworkWorkload {
        network,
        repr,
        // Marker value: traced workloads carry no generator parameters.
        model: crate::generator::ActivationModel {
            zero_frac: f64::NAN,
            sigma: f64::NAN,
            suffix_density: f64::NAN,
            outlier_prob: f64::NAN,
            dense_prob: f64::NAN,
            heavy_share: f64::NAN,
        },
        layers,
    })
}

/// The next `n` bytes of `rest`, or an error when fewer are left.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n).ok_or_else(|| bad("truncated PRAT trace"))?;
    *rest = tail;
    Ok(head)
}

fn take_u32(rest: &mut &[u8]) -> io::Result<u32> {
    let (head, tail) = rest.split_first_chunk::<4>().ok_or_else(|| bad("truncated PRAT trace"))?;
    *rest = tail;
    Ok(u32::from_le_bytes(*head))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ActivationModel;

    fn tiny_workload() -> NetworkWorkload {
        let model = ActivationModel {
            zero_frac: 0.5,
            sigma: 0.1,
            suffix_density: 0.3,
            outlier_prob: 0.0,
            dense_prob: 0.05,
            heavy_share: 0.5,
        };
        NetworkWorkload::build_with_model(Network::AlexNet, Representation::Fixed16, model, 77)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let w = tiny_workload();
        let mut buf = Vec::new();
        write_trace(&mut buf, &w).unwrap();
        let (repr, layers) = read_trace(buf.as_slice()).unwrap();
        assert_eq!(repr, Representation::Fixed16);
        assert_eq!(layers.len(), w.layers.len());
        for (t, l) in layers.iter().zip(&w.layers) {
            assert_eq!(t.name, l.spec.name());
            assert_eq!(&t.neurons, &l.neurons);
        }
    }

    #[test]
    fn workload_round_trip_is_simulatable() {
        let w = tiny_workload();
        let mut buf = Vec::new();
        write_trace(&mut buf, &w).unwrap();
        let back = workload_from_trace(buf.as_slice(), Network::AlexNet).unwrap();
        assert_eq!(back.layers.len(), 5);
        assert_eq!(back.layers[0].neurons, w.layers[0].neurons);
        assert_eq!(back.layers[2].stripes_precision, 5);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE0000"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_trace_rejected() {
        let w = tiny_workload();
        let mut buf = Vec::new();
        write_trace(&mut buf, &w).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn wrong_network_rejected() {
        let w = tiny_workload();
        let mut buf = Vec::new();
        write_trace(&mut buf, &w).unwrap();
        let err = workload_from_trace(buf.as_slice(), Network::Vgg19).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("layers"));
    }

    /// A one-layer trace header claiming `dims`, followed by `data`.
    fn crafted(dims: [u32; 3], data: &[u8]) -> Vec<u8> {
        let mut buf = b"PRAT".to_vec();
        for v in [1u32, 16, 1, 1] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.push(b'x');
        for d in dims {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        buf.extend_from_slice(data);
        buf
    }

    #[test]
    fn crafted_dims_fail_closed_without_allocating() {
        // Overflows the element count.
        let overflow = crafted([u32::MAX; 3], &[0; 64]);
        assert_eq!(read_trace(overflow.as_slice()).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // 2^48 neurons: 512 TiB the input does not hold.
        let huge = crafted([1 << 16; 3], &[0; 64]);
        assert_eq!(read_trace(huge.as_slice()).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // The exact bytes decode; one more or one fewer does not.
        let exact = crafted([2, 1, 1], &[1, 0, 2, 0]);
        assert_eq!(read_trace(exact.as_slice()).unwrap().1[0].neurons.as_slice(), &[1, 2]);
        assert!(read_trace(&exact[..exact.len() - 1]).is_err());
        assert!(read_trace([exact.as_slice(), &[0]].concat().as_slice()).is_err());
    }

    #[test]
    fn oversized_q8_values_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"PRAT");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&8u32.to_le_bytes()); // Quant8
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b'x');
        for d in [1u32, 1, 1] {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        buf.extend_from_slice(&300u16.to_le_bytes());
        assert!(read_trace(buf.as_slice()).is_err());
    }
}
