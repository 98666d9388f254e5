// Umbrella header for measurement utilities.
#pragma once

#include "metrics/cpu_usage.hpp"
#include "metrics/table.hpp"
#include "metrics/throughput.hpp"
