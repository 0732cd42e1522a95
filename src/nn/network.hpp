// Sequential network container plus softmax cross-entropy loss. This is the
// training substrate standing in for the paper's DL4J LeNet-5 stack.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace fedco::nn {

/// Loss value and logits gradient of one forward/backward evaluation.
struct LossResult {
  double loss = 0.0;        ///< mean cross-entropy over the batch
  double accuracy = 0.0;    ///< fraction of argmax-correct predictions
};

/// Softmax cross-entropy over (N, K) logits with integer labels.
/// `grad_logits` receives d(mean loss)/d(logits).
[[nodiscard]] LossResult softmax_cross_entropy(const Tensor& logits,
                                               const std::vector<std::size_t>& labels,
                                               Tensor& grad_logits);

/// A feed-forward stack of layers with value-semantics cloning so federated
/// clients can snapshot/restore models cheaply.
class Network {
 public:
  Network() = default;
  Network(const Network& other);
  Network& operator=(const Network& other);
  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  void add(std::unique_ptr<Layer> layer);

  [[nodiscard]] Tensor forward(const Tensor& input);
  /// Backpropagate dL/d(output); parameter gradients accumulate.
  void backward(const Tensor& grad_output);
  void zero_grad();

  /// One training step on a batch: forward, loss, backward. Gradients are
  /// zeroed first so the result is exactly this batch's gradient.
  LossResult train_batch(const Tensor& input, const std::vector<std::size_t>& labels);

  /// Forward-only evaluation of mean loss/accuracy on a batch.
  [[nodiscard]] LossResult evaluate_batch(const Tensor& input,
                                          const std::vector<std::size_t>& labels);

  [[nodiscard]] std::vector<Tensor*> params();
  [[nodiscard]] std::vector<Tensor*> grads();
  [[nodiscard]] std::vector<const Tensor*> params() const;

  /// Total learnable scalar count.
  [[nodiscard]] std::size_t param_count() const;

  /// Copy all parameters into / out of a single flat vector (canonical
  /// layer-then-tensor order). Used by the parameter server and the
  /// gradient-gap metric.
  [[nodiscard]] std::vector<float> flatten_params() const;
  void load_params(std::span<const float> flat);

  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_.at(i); }
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace fedco::nn
