//! Convolutional-layer geometry of the six evaluated networks (§VI-A).
//!
//! Layer shapes follow the standard Caffe/ImageNet model definitions. One
//! deliberate approximation, documented in DESIGN.md: GoogLeNet's nine
//! inception modules are each represented by a single 3×3 convolution with
//! the module's input and total-output channel counts, so that the network
//! contributes eleven layers — matching the eleven per-layer precisions the
//! paper reports for it in Table II — with approximately the module's
//! multiplication count.

use pra_tensor::ConvLayerSpec;

/// The six state-of-the-art image-classification networks of the paper's
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Network {
    /// AlexNet (5 convolutional layers).
    AlexNet,
    /// Network-in-Network (12 convolutional layers).
    NiN,
    /// GoogLeNet (11 layer groups; see module docs).
    GoogLeNet,
    /// VGG-M (5 convolutional layers).
    VggM,
    /// VGG-S (5 convolutional layers).
    VggS,
    /// VGG-19 (16 convolutional layers).
    Vgg19,
}

impl Network {
    /// All six networks in the paper's reporting order.
    pub const ALL: [Network; 6] = [
        Network::AlexNet,
        Network::NiN,
        Network::GoogLeNet,
        Network::VggM,
        Network::VggS,
        Network::Vgg19,
    ];

    /// The short name used in the paper's tables ("Alexnet", "NiN", ...).
    pub fn name(&self) -> &'static str {
        match self {
            Network::AlexNet => "Alexnet",
            Network::NiN => "NiN",
            Network::GoogLeNet => "Google",
            Network::VggM => "VGGM",
            Network::VggS => "VGGS",
            Network::Vgg19 => "VGG19",
        }
    }

    /// The network's convolutional layers in execution order.
    pub fn conv_layers(&self) -> Vec<ConvLayerSpec> {
        let rows: &[LayerRow] = match self {
            Network::AlexNet => ALEXNET,
            Network::NiN => NIN,
            Network::GoogLeNet => GOOGLENET,
            Network::VggM => VGG_M,
            Network::VggS => VGG_S,
            Network::Vgg19 => VGG_19,
        };
        rows.iter()
            .map(|r| {
                ConvLayerSpec::new(r.name, (r.nx, r.ny, r.i), (r.f, r.f), r.n, r.s, r.p)
                    .expect("built-in layer tables are valid")
            })
            .collect()
    }

    /// Total multiplications over the network's convolutional layers.
    pub fn total_multiplications(&self) -> u64 {
        self.conv_layers().iter().map(|l| l.multiplications()).sum()
    }
}

impl std::fmt::Display for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

struct LayerRow {
    name: &'static str,
    nx: usize,
    ny: usize,
    i: usize,
    f: usize,
    n: usize,
    s: usize,
    p: usize,
}

const fn l(
    name: &'static str,
    nx: usize,
    i: usize,
    f: usize,
    n: usize,
    s: usize,
    p: usize,
) -> LayerRow {
    LayerRow { name, nx, ny: nx, i, f, n, s, p }
}

const ALEXNET: &[LayerRow] = &[
    l("conv1", 227, 3, 11, 96, 4, 0),
    l("conv2", 27, 96, 5, 256, 1, 2),
    l("conv3", 13, 256, 3, 384, 1, 1),
    l("conv4", 13, 384, 3, 384, 1, 1),
    l("conv5", 13, 384, 3, 256, 1, 1),
];

const NIN: &[LayerRow] = &[
    l("conv1", 224, 3, 11, 96, 4, 0),
    l("cccp1", 54, 96, 1, 96, 1, 0),
    l("cccp2", 54, 96, 1, 96, 1, 0),
    l("conv2", 27, 96, 5, 256, 1, 2),
    l("cccp3", 27, 256, 1, 256, 1, 0),
    l("cccp4", 27, 256, 1, 256, 1, 0),
    l("conv3", 13, 256, 3, 384, 1, 1),
    l("cccp5", 13, 384, 1, 384, 1, 0),
    l("cccp6", 13, 384, 1, 384, 1, 0),
    l("conv4", 6, 384, 3, 1024, 1, 1),
    l("cccp7", 6, 1024, 1, 1024, 1, 0),
    l("cccp8", 6, 1024, 1, 1000, 1, 0),
];

const GOOGLENET: &[LayerRow] = &[
    l("conv1/7x7_s2", 224, 3, 7, 64, 2, 3),
    l("conv2/3x3_reduce", 56, 64, 1, 64, 1, 0),
    l("conv2/3x3", 56, 64, 3, 192, 1, 1),
    l("inception_3a", 28, 192, 3, 256, 1, 1),
    l("inception_3b", 28, 256, 3, 480, 1, 1),
    l("inception_4a", 14, 480, 3, 512, 1, 1),
    l("inception_4b", 14, 512, 3, 512, 1, 1),
    l("inception_4c", 14, 512, 3, 512, 1, 1),
    l("inception_4d", 14, 512, 3, 528, 1, 1),
    l("inception_4e", 14, 528, 3, 832, 1, 1),
    l("inception_5", 7, 832, 3, 1024, 1, 1),
];

const VGG_M: &[LayerRow] = &[
    l("conv1", 224, 3, 7, 96, 2, 0),
    l("conv2", 54, 96, 5, 256, 2, 1),
    l("conv3", 13, 256, 3, 512, 1, 1),
    l("conv4", 13, 512, 3, 512, 1, 1),
    l("conv5", 13, 512, 3, 512, 1, 1),
];

const VGG_S: &[LayerRow] = &[
    l("conv1", 224, 3, 7, 96, 2, 0),
    l("conv2", 36, 96, 5, 256, 1, 2),
    l("conv3", 18, 256, 3, 512, 1, 1),
    l("conv4", 18, 512, 3, 512, 1, 1),
    l("conv5", 18, 512, 3, 512, 1, 1),
];

const VGG_19: &[LayerRow] = &[
    l("conv1_1", 224, 3, 3, 64, 1, 1),
    l("conv1_2", 224, 64, 3, 64, 1, 1),
    l("conv2_1", 112, 64, 3, 128, 1, 1),
    l("conv2_2", 112, 128, 3, 128, 1, 1),
    l("conv3_1", 56, 128, 3, 256, 1, 1),
    l("conv3_2", 56, 256, 3, 256, 1, 1),
    l("conv3_3", 56, 256, 3, 256, 1, 1),
    l("conv3_4", 56, 256, 3, 256, 1, 1),
    l("conv4_1", 28, 256, 3, 512, 1, 1),
    l("conv4_2", 28, 512, 3, 512, 1, 1),
    l("conv4_3", 28, 512, 3, 512, 1, 1),
    l("conv4_4", 28, 512, 3, 512, 1, 1),
    l("conv5_1", 14, 512, 3, 512, 1, 1),
    l("conv5_2", 14, 512, 3, 512, 1, 1),
    l("conv5_3", 14, 512, 3, 512, 1, 1),
    l("conv5_4", 14, 512, 3, 512, 1, 1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn layer_counts_match_table2_profiles() {
        for net in Network::ALL {
            assert_eq!(
                net.conv_layers().len(),
                profiles::precisions(net).len(),
                "{net}: layer count vs Table II precision count"
            );
        }
    }

    #[test]
    fn alexnet_conv1_output_is_55() {
        let layers = Network::AlexNet.conv_layers();
        assert_eq!(layers[0].out_x(), 55);
        assert_eq!(layers[0].num_filters, 96);
    }

    #[test]
    fn vgg19_has_same_padding_everywhere() {
        for layer in Network::Vgg19.conv_layers() {
            assert_eq!(layer.out_x(), layer.input.x, "{}", layer.name());
        }
    }

    #[test]
    fn all_networks_have_positive_work() {
        for net in Network::ALL {
            assert!(net.total_multiplications() > 100_000_000, "{net}");
        }
    }

    #[test]
    fn vgg19_is_the_biggest_network() {
        let vgg19 = Network::Vgg19.total_multiplications();
        for net in [Network::AlexNet, Network::NiN, Network::VggM, Network::VggS] {
            assert!(vgg19 > net.total_multiplications(), "{net}");
        }
    }

    #[test]
    fn first_layers_have_three_input_channels() {
        for net in Network::ALL {
            assert_eq!(net.conv_layers()[0].input.i, 3, "{net}");
        }
    }

    #[test]
    fn names_match_paper_order() {
        let names: Vec<_> = Network::ALL.iter().map(|n| n.name()).collect();
        assert_eq!(names, vec!["Alexnet", "NiN", "Google", "VGGM", "VGGS", "VGG19"]);
    }
}
