// Former names of the fleet coordinator. A coordinator is now a plain
// CampaignService whose ServiceConfig lists worker sockets (svc/service.h);
// these aliases remain only because perfbench/driver.cpp still spells the
// old names, and go when that file moves to the new ones.
#pragma once

#include "svc/config.h"
#include "svc/service.h"

namespace vscrub {

using CoordinatorConfig = ServiceConfig;
using CoordinatorService = CampaignService;

}  // namespace vscrub
