#pragma once

// The library's modules under their short names inside `perfbench`.

namespace vcaqoe {
namespace common {}
namespace core {}
namespace datasets {}
namespace engine {}
namespace features {}
namespace inference {}
namespace ingest {}
namespace ml {}
namespace netflow {}
namespace rxstats {}
}  // namespace vcaqoe

namespace perfbench {
namespace common = vcaqoe::common;
namespace core = vcaqoe::core;
namespace datasets = vcaqoe::datasets;
namespace engine = vcaqoe::engine;
namespace features = vcaqoe::features;
namespace inference = vcaqoe::inference;
namespace ingest = vcaqoe::ingest;
namespace ml = vcaqoe::ml;
namespace netflow = vcaqoe::netflow;
namespace rxstats = vcaqoe::rxstats;
}  // namespace perfbench
