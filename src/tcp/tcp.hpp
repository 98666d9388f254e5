// Umbrella header for the TCP stack model.
#pragma once

#include "tcp/connection.hpp"
