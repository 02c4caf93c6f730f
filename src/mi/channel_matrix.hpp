// Channel matrix: conditional probability of output symbols (binned
// continuous outputs) given input symbols — the heat-map representation of
// paper Fig. 3. Renderable as CSV (for plotting) or ASCII (for terminals).
#ifndef TP_MI_CHANNEL_MATRIX_HPP_
#define TP_MI_CHANNEL_MATRIX_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "mi/observations.hpp"

namespace tp::mi {

class ChannelMatrix {
 public:
  ChannelMatrix(const Observations& obs, std::size_t output_bins);

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_bins() const { return bins_; }
  // P(output bin | input index).
  double Probability(std::size_t input_index, std::size_t bin) const;
  double BinCenter(std::size_t bin) const;

  std::string ToCsv() const;
  // Rows = output bins (descending), cols = inputs; '·' to '#' by density.
  std::string ToAscii(std::size_t max_rows = 24) const;

 private:
  std::vector<int> inputs_;
  std::vector<std::vector<double>> prob_;  // [input][bin]
  std::size_t bins_;
  double lo_ = 0.0;
  double hi_ = 1.0;
};

}  // namespace tp::mi

#endif  // TP_MI_CHANNEL_MATRIX_HPP_
