#include "green/table/task_type.h"

namespace green {

const char* TaskTypeName(TaskType task) {
  switch (task) {
    case TaskType::kBinary:
      return "binary";
    case TaskType::kMulticlass:
      return "multiclass";
    case TaskType::kRegression:
      return "regression";
  }
  return "binary";
}

Result<TaskType> ParseTaskType(const std::string& name) {
  if (name == "binary") return TaskType::kBinary;
  if (name == "multiclass") return TaskType::kMulticlass;
  if (name == "regression") return TaskType::kRegression;
  return Status::InvalidArgument("unknown task type: " + name);
}

TaskType TaskTypeForClasses(int num_classes) {
  return num_classes >= 3 ? TaskType::kMulticlass : TaskType::kBinary;
}

}  // namespace green
