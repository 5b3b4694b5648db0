use std::fmt;

use xbar_device::ConductanceRange;
use xbar_tensor::Tensor;

use crate::PeripheryMatrix;

/// The signed-to-nonnegative mapping strategies compared in the paper.
///
/// All three factor a signed `N_O × N_I` weight matrix `W` into
/// `W = S · M` with `M ≥ 0` stored on the crossbar (paper Fig. 1 and
/// Fig. 2); they differ only in the shape and stencil of the periphery
/// matrix `S`:
///
/// | Mapping | `N_D` (crossbar columns) | weight range (G_min = 0) |
/// |---|---|---|
/// | [`Mapping::DoubleElement`] | `2·N_O` | `[−G_max, G_max]` |
/// | [`Mapping::BiasColumn`]    | `N_O + 1` | `[−G_max/2, G_max/2]` |
/// | [`Mapping::Acm`]           | `N_O + 1` | `[−G_max, G_max]`, column-coupled |
/// | [`Mapping::Perm`]          | `N_O + 1` | `[−G_max/2, G_max/2]`, rows permuted |
///
/// ACM achieves DE's dynamic range at BC's hardware cost, at the price of a
/// nearest-neighbour coupling between columns — which Sec. III-E shows acts
/// as a mild regularizer.
///
/// Perm extends the comparison beyond the paper: it is BC with an
/// X-CHANGR-style physical reordering of the device columns (rows of
/// `M`) that places large-magnitude weight rows nearest the drivers,
/// mitigating line-resistance IR drop; the inverse permutation is folded
/// into the periphery (`S_p = S · Pᵀ`), so the factorization stays exact.
///
/// # Example
///
/// ```
/// use xbar_core::Mapping;
///
/// assert_eq!(Mapping::Acm.num_device_columns(10), 11);
/// assert_eq!(Mapping::DoubleElement.num_device_columns(10), 20);
/// assert_eq!(Mapping::BiasColumn.num_device_columns(10), 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mapping {
    /// Differential encoding: two crossbar columns per weight column, the
    /// output being their difference (paper Fig. 1a; refs \[5\], \[6\]).
    DoubleElement,
    /// A single fixed reference column at mid-range conductance subtracted
    /// from every output (paper Fig. 1b; refs \[7\], \[8\]).
    BiasColumn,
    /// The paper's proposal: each column is the reference for its immediate
    /// neighbour — outputs are differences of adjacent columns with
    /// alternating signs (paper Fig. 2).
    Acm,
    /// Permutation remapping (beyond the paper; after X-CHANGR): the BC
    /// stencil with device columns physically reordered so that
    /// large-magnitude weight rows sit nearest the drivers, where
    /// line-resistance attenuation is smallest. The inverse permutation
    /// is folded into the periphery, so the mapping stays exact under
    /// zero parasitics.
    Perm,
}

impl Mapping {
    /// All mappings, in the order the paper's tables list them, with the
    /// beyond-paper permutation mapping appended last.
    pub const ALL: [Mapping; 4] = [
        Mapping::BiasColumn,
        Mapping::DoubleElement,
        Mapping::Acm,
        Mapping::Perm,
    ];

    /// Number of crossbar columns (`N_D`) needed to represent `n_out`
    /// signed weight columns.
    pub fn num_device_columns(&self, n_out: usize) -> usize {
        match self {
            Self::DoubleElement => 2 * n_out,
            Self::BiasColumn | Self::Acm | Self::Perm => n_out + 1,
        }
    }

    /// Number of synapse elements for an `n_out × n_in` weight matrix.
    pub fn num_elements(&self, n_out: usize, n_in: usize) -> usize {
        self.num_device_columns(n_out) * n_in
    }

    /// Per-weight operational overhead: digitized additions/subtractions
    /// at the periphery. One subtraction per weight for every mapping
    /// (paper Sec. II) — this is why the comparison is purely about element
    /// count and dynamic range.
    pub fn subtractions_per_weight(&self) -> usize {
        1
    }

    /// The signed weight range a single (pair of) element(s) can represent
    /// under this mapping, for a device range `[g_min, g_max]`
    /// (paper Sec. II and Sec. III-D).
    ///
    /// For ACM this is the *upper bound* `[−span, span]`: the actual
    /// representable set is coupled across the column (neighbouring columns
    /// must balance), which is exactly the regularization the paper
    /// analyses.
    pub fn weight_range(&self, range: ConductanceRange) -> (f32, f32) {
        let span = range.span();
        match self {
            Self::DoubleElement | Self::Acm => (-span, span),
            Self::BiasColumn | Self::Perm => (-span / 2.0, span / 2.0),
        }
    }

    /// Builds this mapping's periphery matrix for `n_out` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `n_out == 0`.
    pub fn periphery(&self, n_out: usize) -> PeripheryMatrix {
        match self {
            Self::DoubleElement => PeripheryMatrix::double_element(n_out),
            // Perm's *base* stencil is BC's; a concrete array folds its
            // row permutation in via `PeripheryMatrix::permuted`.
            Self::BiasColumn | Self::Perm => PeripheryMatrix::bias_column(n_out),
            Self::Acm => PeripheryMatrix::acm(n_out),
        }
    }

    /// Short uppercase tag used in experiment output ("DE", "BC", "ACM").
    pub fn tag(&self) -> &'static str {
        match self {
            Self::DoubleElement => "DE",
            Self::BiasColumn => "BC",
            Self::Acm => "ACM",
            Self::Perm => "PERM",
        }
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Error parsing a [`Mapping`] from a string tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMappingError(String);

impl fmt::Display for ParseMappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown mapping '{}': expected one of DE, BC, ACM, PERM",
            self.0
        )
    }
}

impl std::error::Error for ParseMappingError {}

impl std::str::FromStr for Mapping {
    type Err = ParseMappingError;

    /// Parses the [`Mapping::tag`] form, case-insensitively — the
    /// round-trip inverse of [`Mapping`]'s `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "DE" => Ok(Self::DoubleElement),
            "BC" => Ok(Self::BiasColumn),
            "ACM" => Ok(Self::Acm),
            "PERM" => Ok(Self::Perm),
            _ => Err(ParseMappingError(s.to_string())),
        }
    }
}

/// Stable descending order of the device rows of `M (N_D × N_I)` by total
/// deviation from `mid` (`Σᵢ |m[j,i] − mid|`) — the X-CHANGR-style
/// placement rule behind [`Mapping::Perm`]: the returned `perm` assigns
/// logical device column `perm[p]` to physical position `p`, so the
/// largest-magnitude rows land nearest the drivers where IR-drop
/// attenuation is smallest. The sort is stable, so a BC reference row
/// (all `mid`, deviation exactly zero, stored last) stays last.
pub fn magnitude_permutation(m: &Tensor, mid: f32) -> Vec<usize> {
    let (nd, n_in) = (m.shape()[0], m.shape()[1]);
    let key: Vec<f32> = (0..nd)
        .map(|j| {
            m.data()[j * n_in..(j + 1) * n_in]
                .iter()
                .map(|&g| (g - mid).abs())
                .sum()
        })
        .collect();
    let mut perm: Vec<usize> = (0..nd).collect();
    perm.sort_by(|&a, &b| {
        key[b]
            .partial_cmp(&key[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_counts_match_paper() {
        // Paper Sec. III-D: DE has N_D = 2 N_O; BC and ACM have the minimum
        // N_D = N_O + 1.
        for no in [1usize, 4, 100] {
            assert_eq!(Mapping::DoubleElement.num_device_columns(no), 2 * no);
            assert_eq!(Mapping::BiasColumn.num_device_columns(no), no + 1);
            assert_eq!(Mapping::Acm.num_device_columns(no), no + 1);
            assert_eq!(Mapping::Perm.num_device_columns(no), no + 1);
        }
    }

    #[test]
    fn element_counts_scale_with_inputs() {
        assert_eq!(Mapping::DoubleElement.num_elements(10, 5), 100);
        assert_eq!(Mapping::Acm.num_elements(10, 5), 55);
        assert_eq!(Mapping::BiasColumn.num_elements(10, 5), 55);
    }

    #[test]
    fn de_uses_roughly_double_the_elements_of_acm() {
        // The 2.3x area advantage in Table I stems from this ratio.
        let de = Mapping::DoubleElement.num_elements(100, 400) as f32;
        let acm = Mapping::Acm.num_elements(100, 400) as f32;
        assert!((de / acm - 2.0).abs() < 0.05);
    }

    #[test]
    fn operational_overhead_identical() {
        for m in Mapping::ALL {
            assert_eq!(m.subtractions_per_weight(), 1);
        }
    }

    #[test]
    fn weight_ranges_match_paper_sec2() {
        let r = ConductanceRange::normalized();
        assert_eq!(Mapping::DoubleElement.weight_range(r), (-1.0, 1.0));
        assert_eq!(Mapping::BiasColumn.weight_range(r), (-0.5, 0.5));
        assert_eq!(Mapping::Acm.weight_range(r), (-1.0, 1.0));
        // Perm is a physically reordered BC: same dynamic range.
        assert_eq!(Mapping::Perm.weight_range(r), (-0.5, 0.5));
    }

    #[test]
    fn display_tags() {
        assert_eq!(Mapping::DoubleElement.to_string(), "DE");
        assert_eq!(Mapping::BiasColumn.to_string(), "BC");
        assert_eq!(Mapping::Acm.to_string(), "ACM");
        assert_eq!(Mapping::Perm.to_string(), "PERM");
    }

    #[test]
    fn from_str_round_trips_display() {
        for m in Mapping::ALL {
            assert_eq!(m.to_string().parse::<Mapping>().unwrap(), m);
            assert_eq!(m.tag().parse::<Mapping>().unwrap(), m);
            // Case-insensitive: experiment CLIs pass lowercase tags.
            assert_eq!(m.tag().to_ascii_lowercase().parse::<Mapping>().unwrap(), m);
        }
        let err = "adjacent".parse::<Mapping>().unwrap_err();
        assert!(err.to_string().contains("adjacent"));
    }

    #[test]
    fn magnitude_permutation_is_stable_for_ties() {
        // Identical rows keep their original order (stable sort), which
        // is what pins BC's all-mid reference row to the last slot.
        let m = Tensor::from_vec(vec![0.5, 0.5, 0.9, 0.1, 0.5, 0.5], &[3, 2]).unwrap();
        assert_eq!(magnitude_permutation(&m, 0.5), vec![1, 0, 2]);
    }
}
