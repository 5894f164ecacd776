// Image blending with approximate adders — the error-resilient media
// workload from the paper's introduction.  Blends two synthetic images
// with every LPAA cell and reports PSNR; writes PGM files for visual
// inspection, and shows the hybrid MSB-exact trick.
//
//   ./example_image_blend [--size=128] [--out-dir=/tmp]
#include <cmath>
#include <limits>
#include <iostream>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/characteristics.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/apps/image.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/profile_estimation.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/util/cli.hpp"
#include "sealpaa/util/format.hpp"
#include "sealpaa/util/table.hpp"

int main(int argc, char** argv) {
  using namespace sealpaa;
  const util::CliArgs args(argc, argv);
  const std::size_t size = static_cast<std::size_t>(args.get_int("size", 128));
  const std::string out_dir = args.get("out-dir", "/tmp");

  prob::Xoshiro256StarStar rng(0xB1E0D);
  const apps::Image scene = apps::Image::blobs(size, size, 6, rng);
  const apps::Image overlay = apps::Image::gradient(size, size);
  const apps::Image reference = apps::exact_blend(scene, overlay);

  scene.write_pgm(out_dir + "/sealpaa_scene.pgm");
  overlay.write_pgm(out_dir + "/sealpaa_overlay.pgm");
  reference.write_pgm(out_dir + "/sealpaa_blend_exact.pgm");

  std::cout << "Blending two " << size << "x" << size
            << " synthetic images ((a+b)/2) through 8-bit adder chains:\n\n";

  // Analytical PSNR prediction: estimate the per-bit pixel statistics,
  // get the exact adder-error second moment from the error PMF, and map
  // it to pixel MSE (the >>1 halves the error; clamping is
  // ignored, so the model is optimistic for huge errors).
  std::vector<multibit::OperandSample> pixel_trace;
  for (std::size_t y = 0; y < scene.height(); ++y) {
    for (std::size_t x = 0; x < scene.width(); ++x) {
      pixel_trace.push_back({scene.at(x, y), overlay.at(x, y)});
    }
  }
  const multibit::InputProfile pixel_profile =
      multibit::estimate_profile(pixel_trace, 8, 0.0);

  util::TextTable table({"Adder", "PSNR (dB)", "predicted PSNR", "MSE",
                         "Power (nW, 8 cells)"});
  for (std::size_t c = 1; c <= 4; ++c) table.set_align(c, util::Align::Right);

  for (const adders::AdderCell& cell : adders::all_builtin_cells()) {
    const auto chain = multibit::AdderChain::homogeneous(cell, 8);
    const apps::Image blended = apps::approx_blend(scene, overlay, chain);
    blended.write_pgm(out_dir + "/sealpaa_blend_" + cell.name() + ".pgm");
    const double psnr = apps::image_psnr(reference, blended);
    const double pixel_mse =
        analysis::propagate_error_pmf(chain, pixel_profile)
            .mean_squared_error() /
        4.0;  // err >> 1
    const double predicted =
        pixel_mse <= 0.0 ? std::numeric_limits<double>::infinity()
                         : 10.0 * std::log10(255.0 * 255.0 / pixel_mse);
    const auto power = adders::chain_power_nw(cell, 8);
    table.add_row({chain.describe(),
                   std::isinf(psnr) ? "inf" : util::fixed(psnr, 2),
                   std::isinf(predicted) ? "inf" : util::fixed(predicted, 2),
                   util::fixed(apps::image_mse(reference, blended), 2),
                   power ? util::fixed(*power, 0) : "n/a"});
  }

  // The standard trick: approximate only the low nibble.
  std::vector<adders::AdderCell> hybrid;
  for (int i = 0; i < 4; ++i) hybrid.push_back(adders::lpaa(5));
  for (int i = 0; i < 4; ++i) hybrid.push_back(adders::accurate());
  const auto hybrid_chain = multibit::AdderChain(hybrid);
  const apps::Image hybrid_blend =
      apps::approx_blend(scene, overlay, hybrid_chain);
  hybrid_blend.write_pgm(out_dir + "/sealpaa_blend_hybrid.pgm");
  const double hybrid_mse =
      analysis::propagate_error_pmf(hybrid_chain, pixel_profile)
          .mean_squared_error();
  const double hybrid_predicted =
      10.0 * std::log10(255.0 * 255.0 / (hybrid_mse / 4.0));
  table.add_row({"LPAA5 x4 | AccuFA x4 (LSB-only approx)",
                 util::fixed(apps::image_psnr(reference, hybrid_blend), 2),
                 util::fixed(hybrid_predicted, 2),
                 util::fixed(apps::image_mse(reference, hybrid_blend), 2),
                 util::fixed(4 * 0.0 + 4 * 1385.0, 0)});
  std::cout << table;

  std::cout << "\nPGM files written to " << out_dir
            << " (sealpaa_blend_*.pgm) for visual inspection.\n"
            << "LSB-only approximation keeps PSNR high while zeroing the "
               "power of half the cells - exactly the error-resilience "
               "argument of the paper's introduction.\n";
  return 0;
}
