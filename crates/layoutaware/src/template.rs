//! Procedural layout template for the folded-cascode amplifier.
//!
//! The template plays the role of the Cadence PCELL/SKILL templates of
//! reference \[4\]: given a sizing it *procedurally* produces a full placement —
//! device blocks in fixed relative positions, mirrored about the differential
//! axis — plus the routed wire lengths the extractor needs. Template
//! generation is cheap (microseconds here, "a few seconds" in the paper),
//! which is what makes it usable inside the sizing loop.

use crate::model::{AmplifierSizing, MosDevice, Technology};
use apls_geometry::{Coord, Dims, Rect};
use serde::{Deserialize, Serialize};

/// Database units per µm used by the template (1 dbu = 1 nm).
pub const DBU_PER_UM: f64 = 1000.0;

/// One placed block of the template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplateBlock {
    /// Block name (e.g. `"input_pair"`, `"cascode_left"`).
    pub name: String,
    /// Placed rectangle in dbu.
    pub rect: Rect,
}

/// The generated layout: blocks, outline and routed net lengths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplateLayout {
    /// All placed blocks.
    pub blocks: Vec<TemplateBlock>,
    /// Chip outline in dbu.
    pub outline: Dims,
    /// Estimated routed length of the output nets in µm.
    pub output_wire_um: f64,
    /// Estimated routed length of the internal cascode nets in µm.
    pub cascode_wire_um: f64,
}

impl TemplateLayout {
    /// Outline width in µm.
    #[must_use]
    pub fn width_um(&self) -> f64 {
        self.outline.w as f64 / DBU_PER_UM
    }

    /// Outline height in µm.
    #[must_use]
    pub fn height_um(&self) -> f64 {
        self.outline.h as f64 / DBU_PER_UM
    }

    /// Outline area in µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.width_um() * self.height_um()
    }

    /// Aspect ratio (max extent / min extent, ≥ 1).
    #[must_use]
    pub fn aspect_ratio(&self) -> f64 {
        let w = self.width_um();
        let h = self.height_um();
        if w == 0.0 || h == 0.0 {
            return f64::INFINITY;
        }
        (w / h).max(h / w)
    }
}

fn block_dims(device: &MosDevice, tech: &Technology) -> Dims {
    let (w_um, h_um) = device.footprint_um(tech);
    Dims::new((w_um * DBU_PER_UM).round() as Coord, (h_um * DBU_PER_UM).round() as Coord)
}

/// Generates the folded-cascode template for a sizing.
///
/// Floorplan (mirror-symmetric about the vertical centre line):
///
/// ```text
/// +--------------------------------------+
/// |   bias_left        |      bias_right |   (PMOS bias row)
/// |--------------------+-----------------|
/// |           input pair (CC block)      |   (common-centroid pair)
/// |--------------------+-----------------|
/// | cascode_left       |   cascode_right |
/// | mirror_left        |   mirror_right  |
/// +--------------------------------------+
/// ```
#[must_use]
pub fn generate(tech: &Technology, sizing: &AmplifierSizing) -> TemplateLayout {
    let pair = block_dims(&sizing.input_pair, tech);
    let cascode = block_dims(&sizing.cascode, tech);
    let mirror = block_dims(&sizing.mirror, tech);
    let bias = block_dims(&sizing.bias, tech);
    let spacing: Coord = (2.0 * DBU_PER_UM) as Coord; // 2 µm routing channel

    // the differential pair is laid out as one common-centroid block of the
    // two devices side by side
    let pair_block = Dims::new(2 * pair.w + spacing, pair.h);

    // left/right half stacks: mirror under cascode
    let half_stack_w = cascode.w.max(mirror.w);
    let half_stack_h = cascode.h + spacing + mirror.h;

    // bias row: two bias devices side by side
    let bias_row_w = 2 * bias.w + spacing;
    let bias_row_h = bias.h;

    let core_w = (2 * half_stack_w + spacing).max(pair_block.w).max(bias_row_w);
    let total_h = bias_row_h + spacing + pair_block.h + spacing + half_stack_h;
    let outline = Dims::new(core_w, total_h);
    let center_x = core_w / 2;

    let mut blocks = Vec::new();
    // bias row at the top
    let bias_y = total_h - bias_row_h;
    blocks.push(TemplateBlock {
        name: "bias_left".to_string(),
        rect: Rect::from_dims(
            apls_geometry::Point::new(center_x - spacing / 2 - bias.w, bias_y),
            bias,
        ),
    });
    blocks.push(TemplateBlock {
        name: "bias_right".to_string(),
        rect: Rect::from_dims(apls_geometry::Point::new(center_x + spacing / 2, bias_y), bias),
    });
    // input pair centred below the bias row
    let pair_y = bias_y - spacing - pair_block.h;
    blocks.push(TemplateBlock {
        name: "input_pair".to_string(),
        rect: Rect::from_dims(
            apls_geometry::Point::new(center_x - pair_block.w / 2, pair_y),
            pair_block,
        ),
    });
    // cascode + mirror stacks at the bottom, mirrored about the centre line
    let casc_y = mirror.h + spacing;
    blocks.push(TemplateBlock {
        name: "cascode_left".to_string(),
        rect: Rect::from_dims(
            apls_geometry::Point::new(center_x - spacing / 2 - cascode.w, casc_y),
            cascode,
        ),
    });
    blocks.push(TemplateBlock {
        name: "cascode_right".to_string(),
        rect: Rect::from_dims(apls_geometry::Point::new(center_x + spacing / 2, casc_y), cascode),
    });
    blocks.push(TemplateBlock {
        name: "mirror_left".to_string(),
        rect: Rect::from_dims(
            apls_geometry::Point::new(center_x - spacing / 2 - mirror.w, 0),
            mirror,
        ),
    });
    blocks.push(TemplateBlock {
        name: "mirror_right".to_string(),
        rect: Rect::from_dims(apls_geometry::Point::new(center_x + spacing / 2, 0), mirror),
    });

    // wire length estimates: the output net runs from the cascode drains to
    // the chip edge (half the outline width) plus the vertical distance to the
    // pair; the cascode net connects pair drains to cascode sources.
    let output_wire_um = (core_w as f64 / 2.0 + (pair_y - casc_y).abs() as f64) / DBU_PER_UM;
    let cascode_wire_um =
        ((pair_y - casc_y - cascode.h).abs() as f64 + spacing as f64) / DBU_PER_UM;

    TemplateLayout { blocks, outline, output_wire_um, cascode_wire_um }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_geometry::total_overlap_area;

    #[test]
    fn template_blocks_do_not_overlap_and_fit_the_outline() {
        let tech = Technology::default();
        let layout = generate(&tech, &AmplifierSizing::default());
        assert_eq!(layout.blocks.len(), 7);
        let rects: Vec<Rect> = layout.blocks.iter().map(|b| b.rect).collect();
        assert_eq!(total_overlap_area(&rects), 0);
        for b in &layout.blocks {
            assert!(b.rect.x_min >= 0 && b.rect.y_min >= 0, "{}", b.name);
            assert!(b.rect.x_max <= layout.outline.w, "{}", b.name);
            assert!(b.rect.y_max <= layout.outline.h, "{}", b.name);
        }
    }

    #[test]
    fn template_is_mirror_symmetric() {
        let tech = Technology::default();
        let layout = generate(&tech, &AmplifierSizing::default());
        let axis_x2 = layout.outline.w; // doubled centre-line coordinate
        let find = |name: &str| layout.blocks.iter().find(|b| b.name == name).unwrap().rect;
        for (l, r) in [
            ("bias_left", "bias_right"),
            ("cascode_left", "cascode_right"),
            ("mirror_left", "mirror_right"),
        ] {
            let left = find(l);
            let right = find(r);
            assert_eq!(left.mirror_about_vertical_x2(axis_x2), right, "{l}/{r}");
        }
    }

    #[test]
    fn folding_the_devices_changes_the_aspect_ratio() {
        let tech = Technology::default();
        let mut flat = AmplifierSizing::default();
        flat.input_pair.folds = 1;
        flat.cascode.folds = 1;
        flat.mirror.folds = 1;
        flat.bias.folds = 1;
        let mut folded = AmplifierSizing::default();
        folded.input_pair.folds = 6;
        folded.cascode.folds = 4;
        folded.mirror.folds = 4;
        folded.bias.folds = 4;
        let l_flat = generate(&tech, &flat);
        let l_folded = generate(&tech, &folded);
        assert!(
            l_folded.aspect_ratio() < l_flat.aspect_ratio(),
            "folded {} vs flat {}",
            l_folded.aspect_ratio(),
            l_flat.aspect_ratio()
        );
    }

    #[test]
    fn bigger_devices_give_a_bigger_layout() {
        let tech = Technology::default();
        let small = AmplifierSizing::default();
        let mut big = small;
        big.input_pair.width_um *= 3.0;
        big.mirror.width_um *= 3.0;
        let a_small = generate(&tech, &small).area_um2();
        let a_big = generate(&tech, &big).area_um2();
        assert!(a_big > a_small);
    }

    #[test]
    fn wire_lengths_are_positive_and_scale_with_the_outline() {
        let tech = Technology::default();
        let small = generate(&tech, &AmplifierSizing::default());
        assert!(small.output_wire_um > 0.0);
        assert!(small.cascode_wire_um > 0.0);
        // a taller cascode stack lengthens the vertical run of the output net
        let mut huge = AmplifierSizing::default();
        huge.cascode.width_um *= 5.0;
        huge.cascode.folds = 1;
        let big = generate(&tech, &huge);
        assert!(big.output_wire_um > small.output_wire_um);
    }
}
