// Tests for model persistence (ml/serialize), the flattened forest layout
// (ml/flattened_forest), and the classical baseline models (ml/baselines)
// that back the §4.3 model comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ml/baselines.hpp"
#include "ml/flattened_forest.hpp"
#include "ml/serialize.hpp"

namespace vcaqoe::ml {
namespace {

Dataset linearDataset(int n, std::uint64_t seed, double noise = 0.3) {
  Dataset d;
  d.featureNames = {"x one", "x two", "junk"};  // space in name: escaping path
  common::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform(-5.0, 5.0);
    const double b = rng.uniform(-5.0, 5.0);
    d.addRow({a, b, rng.uniform(0.0, 1.0)},
             2.0 * a - 3.0 * b + 1.0 + rng.normal(0.0, noise));
  }
  return d;
}

Dataset classDataset(int n, std::uint64_t seed) {
  Dataset d;
  d.featureNames = {"x"};
  common::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    d.addRow({x}, x > 0.5 ? 1.0 : 0.0);
  }
  return d;
}

// ---------------------------------------------------------------- serialize

TEST(Serialize, RoundTripRegressionForest) {
  const Dataset d = linearDataset(400, 1);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 12;
  forest.fit(d, TreeTask::kRegression, options, 7);

  std::stringstream buffer;
  saveForest(forest, buffer);
  const RandomForest loaded = loadForest(buffer);

  EXPECT_EQ(loaded.task(), TreeTask::kRegression);
  EXPECT_EQ(loaded.treeCount(), forest.treeCount());
  EXPECT_EQ(loaded.featureNames(), forest.featureNames());
  common::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x = {rng.uniform(-5.0, 5.0),
                                   rng.uniform(-5.0, 5.0),
                                   rng.uniform(0.0, 1.0)};
    EXPECT_DOUBLE_EQ(loaded.predict(x), forest.predict(x));
  }
}

TEST(Serialize, RoundTripClassificationForest) {
  const Dataset d = classDataset(300, 2);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 9;
  forest.fit(d, TreeTask::kClassification, options, 5);

  std::stringstream buffer;
  saveForest(forest, buffer);
  const RandomForest loaded = loadForest(buffer);
  EXPECT_EQ(loaded.task(), TreeTask::kClassification);
  for (double x = 0.05; x < 1.0; x += 0.1) {
    EXPECT_DOUBLE_EQ(loaded.predict(std::vector<double>{x}),
                     forest.predict(std::vector<double>{x}));
  }
}

TEST(Serialize, PreservesImportance) {
  const Dataset d = linearDataset(300, 3);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 8;
  forest.fit(d, TreeTask::kRegression, options, 9);

  std::stringstream buffer;
  saveForest(forest, buffer);
  const RandomForest loaded = loadForest(buffer);
  const auto a = forest.featureImportance();
  const auto b = loaded.featureImportance();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  // Feature names with spaces survive (used by ranked importance).
  EXPECT_EQ(loaded.rankedImportance()[0].first.find('\\'), std::string::npos);
}

TEST(Serialize, FileRoundTrip) {
  const Dataset d = linearDataset(200, 4);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 5;
  forest.fit(d, TreeTask::kRegression, options, 11);
  const std::string path = "/tmp/vcaqoe_model_test.fst";
  saveForestFile(forest, path);
  const RandomForest loaded = loadForestFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.treeCount(), 5u);
}

TEST(Serialize, RejectsGarbageAndTruncation) {
  std::stringstream junk("not-a-model 1");
  EXPECT_THROW(loadForest(junk), std::runtime_error);

  const Dataset d = linearDataset(100, 5);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 3;
  forest.fit(d, TreeTask::kRegression, options, 1);
  std::stringstream buffer;
  saveForest(forest, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(loadForest(truncated), std::runtime_error);
}

TEST(Serialize, RejectsWrongVersionAndUntrained) {
  std::stringstream wrong("vcaqoe-forest 999\ntask regression\n");
  EXPECT_THROW(loadForest(wrong), std::runtime_error);
  RandomForest empty;
  std::stringstream out;
  EXPECT_THROW(saveForest(empty, out), std::logic_error);
}

TEST(Serialize, RejectsOutOfRangeNodeReferences) {
  std::stringstream bad(
      "vcaqoe-forest 1\n"
      "task regression\n"
      "features 1 x\n"
      "importance 1 1.0\n"
      "trees 1\n"
      "tree 1\n"
      "0 0.5 5 6 0.0\n");  // children out of range
  EXPECT_THROW(loadForest(bad), std::runtime_error);
}

TEST(Serialize, RejectsCyclicNodeReferences) {
  // Regression (found by the fuzz harness work): children that are
  // in-range but point at or behind their parent form a cycle, which used
  // to pass validation and hang DecisionTree::predict / flattening
  // forever. Training emits parents strictly before children, so a
  // well-formed file always points forward.
  const auto load = [](const char* nodes) {
    std::stringstream bad(std::string("vcaqoe-forest 1\n"
                                      "task regression\n"
                                      "features 1 x\n"
                                      "importance 1 1.0\n"
                                      "trees 1\n") +
                          nodes);
    return loadForest(bad);
  };
  // Node 0 pointing at itself: the tightest cycle.
  EXPECT_THROW(load("tree 2\n"
                    "0 0.5 0 1 0.0\n"
                    "-1 0 0 0 3.0\n"),
               std::runtime_error);
  // Two-node loop: 0 -> 1 -> 0.
  EXPECT_THROW(load("tree 3\n"
                    "0 0.5 1 2 0.0\n"
                    "0 0.5 0 2 0.0\n"
                    "-1 0 0 0 3.0\n"),
               std::runtime_error);
  // The forward-pointing equivalent still loads and predicts.
  const RandomForest ok = load(
      "tree 3\n"
      "0 0.5 1 2 0.0\n"
      "-1 0 0 0 3.0\n"
      "-1 0 0 0 7.0\n");
  const std::vector<double> row{0.0};
  EXPECT_EQ(ok.predict(row), 3.0);
}

TEST(Serialize, RejectsTrailingPayloadPastDeclaredCounts) {
  // A file whose declared tree count undershoots the payload must fail
  // loudly instead of silently constructing a truncated forest.
  const Dataset d = linearDataset(150, 21);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 2;
  forest.fit(d, TreeTask::kRegression, options, 3);
  std::stringstream buffer;
  saveForest(forest, buffer);
  std::string text = buffer.str();

  // Understate the tree count: the second tree becomes trailing payload.
  const auto pos = text.find("trees 2");
  ASSERT_NE(pos, std::string::npos);
  std::string understated = text;
  understated.replace(pos, 7, "trees 1");
  std::stringstream bad(understated);
  EXPECT_THROW(loadForest(bad), std::runtime_error);

  // Appending an extra node row past the last declared tree also fails.
  std::stringstream appended(text + "0 0.5 1 2 0.0\n");
  EXPECT_THROW(loadForest(appended), std::runtime_error);

  // The untouched stream still loads.
  std::stringstream good(text);
  EXPECT_EQ(loadForest(good).treeCount(), 2u);
}

TEST(Serialize, CorruptedFileFixtureFailsLoudly) {
  // Regression fixture for the deployment path: a model file corrupted
  // in place (count/payload mismatch) must throw out of the file loaders,
  // not yield a smaller forest.
  const Dataset d = linearDataset(120, 22);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 3;
  forest.fit(d, TreeTask::kRegression, options, 5);
  const std::string path = "/tmp/vcaqoe_corrupt_fixture.forest";
  saveForestFile(forest, path);

  std::string text;
  {
    std::ifstream in(path);
    std::stringstream whole;
    whole << in.rdbuf();
    text = whole.str();
  }
  const auto pos = text.find("trees 3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 7, "trees 2");
  {
    std::ofstream out(path);
    out << text;
  }
  EXPECT_THROW(loadForestFile(path), std::runtime_error);
  // The registry's lazy path must be equally loud for an existing file.
  EXPECT_THROW(tryLoadForestFile(path), std::runtime_error);
  std::remove(path.c_str());
}

// ------------------------------------------------------- flattened forest

// Tree counts on both sides of the 8-tree lockstep lane block: a single
// tree, a partial block, exactly one block, one block plus one, two blocks
// plus one, and the engine's 40.
constexpr int kLaneBoundaryTreeCounts[] = {1, 7, 8, 9, 17, 40};

/// predict, predictBatch (both traversals) and the node-tree form must
/// agree to the last bit on every row.
void expectBitExact(const RandomForest& forest, const FlattenedForest& flat,
                    const std::vector<std::vector<double>>& rows,
                    const std::string& label) {
  const std::vector<FeatureRow> views(rows.begin(), rows.end());
  std::vector<double> blocked(rows.size());
  std::vector<double> rowWise(rows.size());
  flat.predictBatch(views, blocked);
  flat.predictBatch(views, rowWise,
                    FlattenedForest::BatchTraversal::kRowWise);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double reference = forest.predict(rows[i]);
    EXPECT_EQ(flat.predict(rows[i]), reference) << label << " row " << i;
    EXPECT_EQ(blocked[i], reference) << label << " row " << i;
    EXPECT_EQ(rowWise[i], reference) << label << " row " << i;
  }
}

std::vector<std::vector<double>> linearRows(int n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0),
                    rng.uniform(0.0, 1.0)});
  }
  return rows;
}

TEST(FlattenedForest, BitExactOnTrainedRegressionForests) {
  // Property over random forests and random rows: the SoA arena must agree
  // with the node-tree form to the last bit, scalar and batched, at every
  // tree count around the lockstep lane block.
  for (const int trees : kLaneBoundaryTreeCounts) {
    const auto seed = static_cast<std::uint64_t>(31 + trees);
    const Dataset d = linearDataset(350, seed);
    RandomForest forest;
    ForestOptions options;
    options.numTrees = trees;
    forest.fit(d, TreeTask::kRegression, options, seed * 7);
    const FlattenedForest flat(forest);
    EXPECT_TRUE(flat.trained());
    EXPECT_EQ(flat.treeCount(), forest.treeCount());
    expectBitExact(forest, flat, linearRows(200, seed + 100),
                   "trees " + std::to_string(trees));
  }
}

TEST(FlattenedForest, BitExactOnClassificationForests) {
  std::vector<std::vector<double>> rows;
  for (double x = 0.005; x < 1.0; x += 0.01) rows.push_back({x});
  for (const int trees : kLaneBoundaryTreeCounts) {
    const Dataset d = classDataset(400, 41 + static_cast<std::uint64_t>(trees));
    RandomForest forest;
    ForestOptions options;
    options.numTrees = trees;
    forest.fit(d, TreeTask::kClassification, options, 17);
    const FlattenedForest flat(forest);
    EXPECT_EQ(flat.task(), TreeTask::kClassification);
    expectBitExact(forest, flat, rows, "trees " + std::to_string(trees));
  }
}

/// A depth-0 tree: the root is itself a leaf.
DecisionTree leafTree(double value, TreeTask task) {
  DecisionTree::Node leaf;
  leaf.value = value;
  return DecisionTree::fromNodes({leaf}, task, {0.0});
}

/// One split on feature 0 at `threshold` between two leaves.
DecisionTree stumpTree(double threshold, double leftValue, double rightValue,
                       TreeTask task) {
  DecisionTree::Node root;
  root.featureIndex = 0;
  root.threshold = threshold;
  root.left = 1;
  root.right = 2;
  DecisionTree::Node left;
  left.value = leftValue;
  DecisionTree::Node right;
  right.value = rightValue;
  return DecisionTree::fromNodes({root, left, right}, task, {1.0});
}

TEST(FlattenedForest, BitExactWithDepthZeroTreesAcrossLanes) {
  // Root-is-leaf trees mixed into every lane position (first, last, past
  // the block), and a forest of nothing but leaves (no internal node at
  // all, so the lockstep walk never steps).
  for (const int trees : kLaneBoundaryTreeCounts) {
    std::vector<DecisionTree> mixed;
    std::vector<DecisionTree> leavesOnly;
    for (int t = 0; t < trees; ++t) {
      const double value = 0.1 * t + 1.0 / 3.0;
      if (t % 8 == 0 || t % 8 == 7 || t % 3 == 2) {
        mixed.push_back(leafTree(value, TreeTask::kRegression));
      } else {
        mixed.push_back(stumpTree(0.25 * t - 2.0, value, -value,
                                  TreeTask::kRegression));
      }
      leavesOnly.push_back(leafTree(value, TreeTask::kRegression));
    }
    const auto label = "trees " + std::to_string(trees);
    const auto mixedForest = RandomForest::fromParts(
        TreeTask::kRegression, {"x"}, std::move(mixed), {1.0});
    const auto leafForest = RandomForest::fromParts(
        TreeTask::kRegression, {"x"}, std::move(leavesOnly), {1.0});
    std::vector<std::vector<double>> rows;
    for (double x = -3.0; x <= 9.0; x += 0.125) rows.push_back({x});
    expectBitExact(mixedForest, FlattenedForest(mixedForest), rows,
                   "mixed " + label);
    expectBitExact(leafForest, FlattenedForest(leafForest), rows,
                   "leaves " + label);
  }
}

TEST(FlattenedForest, ClassificationTiesStraddlingALaneBlockBreakLow) {
  // Ten stumps: for x <= 0.5 trees 0-4 vote 3 and trees 5-9 vote 1, so the
  // tied votes sit on both sides of the 8-tree block boundary (block 0
  // holds 5 x 3 and 3 x 1, block 1 the other 2 x 1); above 0.5 the classes
  // swap places. Ties go to the smallest class id either way. A 17-tree
  // variant adds a leaf tree voting 2 so one tree past the second block
  // decides between two tied 8-vote classes.
  std::vector<DecisionTree> ten;
  for (int t = 0; t < 10; ++t) {
    ten.push_back(t < 5 ? stumpTree(0.5, 3.0, 1.0, TreeTask::kClassification)
                        : stumpTree(0.5, 1.0, 3.0, TreeTask::kClassification));
  }
  const auto tenForest = RandomForest::fromParts(
      TreeTask::kClassification, {"x"}, std::move(ten), {1.0});

  std::vector<DecisionTree> seventeen;
  for (int t = 0; t < 16; ++t) {
    seventeen.push_back(
        t % 2 == 0 ? stumpTree(0.5, 4.0, 2.0, TreeTask::kClassification)
                   : stumpTree(0.5, 2.0, 4.0, TreeTask::kClassification));
  }
  seventeen.push_back(leafTree(4.0, TreeTask::kClassification));
  const auto seventeenForest = RandomForest::fromParts(
      TreeTask::kClassification, {"x"}, std::move(seventeen), {1.0});

  const std::vector<std::vector<double>> rows = {{0.0}, {0.5}, {0.75}};
  expectBitExact(tenForest, FlattenedForest(tenForest), rows, "ten");
  expectBitExact(seventeenForest, FlattenedForest(seventeenForest), rows,
                 "seventeen");
  const FlattenedForest flatTen(tenForest);
  EXPECT_EQ(flatTen.predict(std::vector<double>{0.0}), 1.0);
  EXPECT_EQ(flatTen.predict(std::vector<double>{0.75}), 1.0);
  const FlattenedForest flatSeventeen(seventeenForest);
  EXPECT_EQ(flatSeventeen.predict(std::vector<double>{0.0}), 4.0);
}

TEST(FlattenedForest, QuantizedLayoutBitExactAtLaneBoundaries) {
  // Features on a 1/8 grid put every split threshold (a midpoint) on a
  // 1/16 grid, which float32 holds exactly, so the quantized arena must
  // match the node-tree form bit for bit — with and without the breadth
  // block reorder, through the same lockstep kernel.
  for (const int trees : kLaneBoundaryTreeCounts) {
    const auto seed = static_cast<std::uint64_t>(61 + trees);
    Dataset d = linearDataset(300, seed);
    for (auto& row : d.x) {
      for (auto& v : row) v = std::round(v * 8.0) / 8.0;
    }
    RandomForest forest;
    ForestOptions options;
    options.numTrees = trees;
    forest.fit(d, TreeTask::kRegression, options, seed);
    for (const bool reorder : {false, true}) {
      FlattenedForest flat(forest);
      flat.applyLayout(
          {.quantizeThresholds = true, .breadthBlockOrder = reorder});
      ASSERT_TRUE(flat.quantized());
      expectBitExact(forest, flat, linearRows(150, seed + 1),
                     "quantized trees " + std::to_string(trees) +
                         (reorder ? " reordered" : ""));
    }
  }
}

TEST(FlattenedForest, NanFeaturesFollowTheNodeTreePath) {
  // `v <= t` is false for NaN, so the node tree sends NaN features right;
  // the flat layout's index-math comparison must agree (regression: the
  // negated `v > t` form sent them left).
  const Dataset d = linearDataset(250, 81);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 6;
  forest.fit(d, TreeTask::kRegression, options, 23);
  const FlattenedForest flat(forest);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  common::Rng rng(82);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x = {rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                             rng.uniform(0.0, 1.0)};
    x[static_cast<std::size_t>(i % 3)] = nan;
    EXPECT_EQ(flat.predict(x), forest.predict(x)) << "row " << i;
  }
}

TEST(FlattenedForest, RejectsUntrainedShortRowsAndShapeMismatch) {
  EXPECT_THROW(FlattenedForest(RandomForest{}), std::invalid_argument);

  const Dataset d = linearDataset(150, 51);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 4;
  forest.fit(d, TreeTask::kRegression, options, 2);
  const FlattenedForest flat(forest);
  EXPECT_THROW(flat.predict(std::vector<double>{1.0}),
               std::invalid_argument);
  const std::vector<double> row(3, 0.0);
  const std::vector<FeatureRow> views = {row, row};
  std::vector<double> wrongSize(3);
  EXPECT_THROW(flat.predictBatch(views, wrongSize), std::invalid_argument);

  FlattenedForest empty;
  EXPECT_FALSE(empty.trained());
  EXPECT_THROW(empty.predict(row), std::logic_error);
}

TEST(FlattenedForest, FromPartsValidatesReferences) {
  // One split over feature 0 with two leaves: the smallest valid arena.
  const auto valid = FlattenedForest::fromParts(
      TreeTask::kRegression, 1, {0}, {0}, {0.5}, {-1}, {-2}, {1.0, 2.0});
  EXPECT_EQ(valid.predict(std::vector<double>{0.0}), 1.0);
  EXPECT_EQ(valid.predict(std::vector<double>{1.0}), 2.0);

  // Child reference past the arena.
  EXPECT_THROW(FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0},
                                          {0.5}, {7}, {-2}, {1.0, 2.0}),
               std::invalid_argument);
  // Leaf reference past the leaf array.
  EXPECT_THROW(FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0},
                                          {0.5}, {-1}, {-9}, {1.0, 2.0}),
               std::invalid_argument);
  // Self-cycle: node 0's left child is node 0.
  EXPECT_THROW(FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0},
                                          {0.5}, {0}, {-1}, {1.0}),
               std::invalid_argument);
  // Unreferenced leaf (declared payload exceeds what the trees reach).
  EXPECT_THROW(
      FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0}, {0.5},
                                 {-1}, {-2}, {1.0, 2.0, 3.0}),
      std::invalid_argument);
}

TEST(Serialize, FlatRoundTripBitExact) {
  const Dataset d = linearDataset(300, 61);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 7;
  forest.fit(d, TreeTask::kRegression, options, 13);
  const FlattenedForest flat(forest);

  std::stringstream buffer;
  saveFlattenedForest(flat, buffer);
  const FlattenedForest loaded = loadFlattenedForest(buffer);
  EXPECT_EQ(loaded.task(), flat.task());
  EXPECT_EQ(loaded.treeCount(), flat.treeCount());
  EXPECT_EQ(loaded.internalNodeCount(), flat.internalNodeCount());
  EXPECT_EQ(loaded.leafCount(), flat.leafCount());

  common::Rng rng(62);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x = {rng.uniform(-5.0, 5.0),
                                   rng.uniform(-5.0, 5.0),
                                   rng.uniform(0.0, 1.0)};
    // Loaded flat == in-memory flat == the original node-tree form.
    EXPECT_EQ(loaded.predict(x), flat.predict(x));
    EXPECT_EQ(loaded.predict(x), forest.predict(x));
  }

  const std::string path = "/tmp/vcaqoe_flat_test.fforest";
  saveFlattenedForestFile(flat, path);
  const FlattenedForest fromFile = loadFlattenedForestFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(fromFile.treeCount(), flat.treeCount());

  FlattenedForest untrained;
  std::stringstream sink;
  EXPECT_THROW(saveFlattenedForest(untrained, sink), std::logic_error);
}

TEST(Serialize, FlatRejectsCountPayloadMismatches) {
  const Dataset d = linearDataset(200, 71);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 3;
  forest.fit(d, TreeTask::kRegression, options, 19);
  std::stringstream buffer;
  saveFlattenedForest(FlattenedForest(forest), buffer);
  const std::string text = buffer.str();

  {
    std::stringstream junk("not-a-flat-forest 1");
    EXPECT_THROW(loadFlattenedForest(junk), std::runtime_error);
  }
  {
    // Node-tree magic is not a flat forest.
    std::stringstream wrong("vcaqoe-forest 1\ntask regression\n");
    EXPECT_THROW(loadFlattenedForest(wrong), std::runtime_error);
  }
  {
    std::string truncated = text;
    truncated.resize(truncated.size() / 2);
    std::stringstream bad(truncated);
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    // Trailing payload past the `end` terminator.
    std::stringstream bad(text + "0 0.5 -1 -2\n");
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    // Understate the node count: payload disagrees with the declaration.
    const auto pos = text.find("nodes ");
    ASSERT_NE(pos, std::string::npos);
    const auto lineEnd = text.find('\n', pos);
    std::string bad = text;
    bad.replace(pos, lineEnd - pos, "nodes 1");
    std::stringstream stream(bad);
    EXPECT_THROW(loadFlattenedForest(stream), std::runtime_error);
  }
  {
    // Untouched stream still round-trips.
    std::stringstream good(text);
    EXPECT_EQ(loadFlattenedForest(good).treeCount(), 3u);
  }
}

TEST(Serialize, RejectsAbsurdDeclaredCounts) {
  // A corrupt count must be a loud malformed-file error before any
  // payload-sized allocation happens — not an OOM or std::length_error.
  {
    std::stringstream bad(
        "vcaqoe-forest-flat 1\ntask regression\nfeatures 1\n"
        "roots 4000000000\n");
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    // Negative count wraps through unsigned extraction to an absurd value.
    std::stringstream bad(
        "vcaqoe-forest-flat 1\ntask regression\nfeatures 1\n"
        "roots 1 0\nnodes -7\n");
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    std::stringstream bad("vcaqoe-forest 1\ntask regression\n"
                          "features 9999999999999\n");
    EXPECT_THROW(loadForest(bad), std::runtime_error);
  }
  {
    // Flat header feature count is guarded too: an absurd value must fail
    // at load, not later as a short-feature-row throw inside a worker.
    std::stringstream bad(
        "vcaqoe-forest-flat 1\ntask regression\nfeatures 9999999999999\n");
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    // INT32_MIN child reference: must be rejected (leaf index out of
    // range), not negated as a signed int (UB regression guard).
    EXPECT_THROW(
        FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0}, {0.5},
                                   {-2147483648}, {-1}, {1.0, 2.0}),
        std::invalid_argument);
  }
}

// ---------------------------------------------------------------- ridge

TEST(Ridge, RecoversLinearFunction) {
  const Dataset d = linearDataset(2'000, 6, 0.1);
  RidgeRegression ridge;
  ridge.fit(d, {0.1});
  common::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(-4.0, 4.0);
    const double b = rng.uniform(-4.0, 4.0);
    const double truth = 2.0 * a - 3.0 * b + 1.0;
    EXPECT_NEAR(ridge.predict(std::vector<double>{a, b, 0.5}), truth, 0.25);
  }
}

TEST(Ridge, HandlesConstantFeature) {
  Dataset d;
  d.featureNames = {"x", "const"};
  common::Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    d.addRow({x, 7.0}, 5.0 * x);
  }
  RidgeRegression ridge;
  ridge.fit(d);
  EXPECT_NEAR(ridge.predict(std::vector<double>{0.5, 7.0}), 2.5, 0.2);
}

TEST(Ridge, ThrowsOnEmptyAndEarlyPredict) {
  RidgeRegression ridge;
  EXPECT_THROW(ridge.fit(Dataset{}), std::invalid_argument);
  EXPECT_THROW(ridge.predict(std::vector<double>{1.0}), std::logic_error);
}

// ---------------------------------------------------------------- knn

TEST(Knn, RegressionInterpolatesLocally) {
  Dataset d;
  d.featureNames = {"x"};
  for (int i = 0; i <= 100; ++i) {
    const double x = i / 100.0;
    d.addRow({x}, x * x);
  }
  KnnModel knn;
  knn.fit(d, {5, TreeTask::kRegression});
  EXPECT_NEAR(knn.predict(std::vector<double>{0.5}), 0.25, 0.02);
  EXPECT_NEAR(knn.predict(std::vector<double>{0.9}), 0.81, 0.03);
}

TEST(Knn, ClassificationMajority) {
  const Dataset d = classDataset(500, 9);
  KnnModel knn;
  knn.fit(d, {7, TreeTask::kClassification});
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.1}), 0.0);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.9}), 1.0);
}

TEST(Knn, KLargerThanDatasetClamped) {
  Dataset d;
  d.featureNames = {"x"};
  d.addRow({0.0}, 1.0);
  d.addRow({1.0}, 3.0);
  KnnModel knn;
  knn.fit(d, {50, TreeTask::kRegression});
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.5}), 2.0);
}

// --------------------------------------------------------- model comparison

TEST(ModelComparison, ForestBestOnNonlinearTarget) {
  // Non-linear, interaction-heavy target: the regime where the paper found
  // random forests consistently ahead of the alternatives (§4.3).
  Dataset d;
  d.featureNames = {"a", "b", "c"};
  common::Rng rng(10);
  for (int i = 0; i < 1'200; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    const double c = rng.uniform(0.0, 1.0);
    // Substantial label noise: the regime where a single deep tree overfits
    // and bagging pays off.
    const double y = (a > 0.5 ? 10.0 : 2.0) * (b > 0.3 ? 1.0 : -1.0) +
                     5.0 * c * c + rng.normal(0.0, 2.0);
    d.addRow({a, b, c}, y);
  }
  const auto comparison = compareModels(d, TreeTask::kRegression, 5, 13);
  EXPECT_LT(comparison.forestMae, comparison.ridgeMae);
  EXPECT_LT(comparison.forestMae, comparison.knnMae);
  EXPECT_LT(comparison.forestMae, comparison.treeMae);
}

}  // namespace
}  // namespace vcaqoe::ml
