#ifndef GREEN_TABLE_TASK_TYPE_H_
#define GREEN_TABLE_TASK_TYPE_H_

#include <string>

#include "green/common/status.h"

namespace green {

/// The learning task a dataset represents. Everything downstream — the
/// splitter, the primary metric, the search score direction, which model
/// families are admissible — dispatches on this enum, so a dataset's task
/// is decided exactly once, when the dataset is constructed.
enum class TaskType {
  kBinary,      ///< Two-class classification.
  kMulticlass,  ///< N-class classification, N >= 3.
  kRegression,  ///< Continuous target.
};

/// Stable lowercase identifier: "binary" / "multiclass" / "regression".
const char* TaskTypeName(TaskType task);

/// Inverse of TaskTypeName; InvalidArgument on unknown names.
Result<TaskType> ParseTaskType(const std::string& name);

inline bool IsClassification(TaskType task) {
  return task != TaskType::kRegression;
}

/// Task implied by a class count (classification side only): 2 or fewer
/// distinct classes is binary, 3+ is multiclass.
TaskType TaskTypeForClasses(int num_classes);

}  // namespace green

#endif  // GREEN_TABLE_TASK_TYPE_H_
